// Package websim builds the synthetic web the crawls run against: a
// deterministic population of websites (the Tranco top-100K snapshots
// and the ~145K-domain malicious set) bound into a simnet.Network, each
// site serving a webdoc.Page whose scheduled requests reproduce the
// local-network behaviors the paper observed.
//
// A World is built per (crawl, OS): the paper crawled each OS at a
// different time, and sites branch on the visitor's platform, so the web
// each OS saw differs both in which sites were up (failure fate) and in
// which local-network scripts ran (ground-truth OS flags).
//
// This package is the paper's central substitution: the live Internet is
// replaced by a population seeded from the paper's published per-site
// tables (internal/groundtruth) plus rate-shaped filler, so the
// detection/classification/analysis pipeline downstream sees event
// streams with the same observable structure the authors measured.
package websim

import (
	"fmt"
	"net/netip"
	"sync"

	"github.com/knockandtalk/knockandtalk/internal/blocklist"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/simnet"
	"github.com/knockandtalk/knockandtalk/internal/whois"
)

// Target is one crawl destination.
type Target struct {
	Domain   string
	URL      string
	Rank     int                // Tranco rank; 0 for malicious targets
	Category blocklist.Category // "" for top-list targets
}

// World is a fully built synthetic web for one crawl campaign on one OS.
type World struct {
	Crawl   groundtruth.CrawlID
	OS      hostenv.OS
	Scale   float64
	Net     *simnet.Network
	Targets []Target
	// Whois holds registration records for the vendor hosts serving
	// profiling scripts (the §4.3.1 attribution evidence).
	Whois *whois.Registry

	fates *fateTable

	tmMu         sync.Mutex // guards tmRegistered across bind workers
	tmRegistered map[string]bool
}

// hash01 derives a deterministic value in [0, 1) from the seed and parts.
func hash01(seed uint64, parts ...string) float64 {
	return float64(hashN(seed, 1<<30, parts...)) / float64(1<<30)
}

// hashN derives a deterministic value in [0, n) from the seed and parts,
// each part preceded by a zero byte.
func hashN(seed uint64, n uint64, parts ...string) uint64 {
	h := simnet.NewHash(seed)
	for _, p := range parts {
		h = h.Feed("\x00").Feed(p)
	}
	return uint64(h) % n
}

// addrFor allocates a deterministic public IPv4 address for the i-th
// site, inside 60.0.0.0/6 — far from loopback and the RFC1918 ranges.
func addrFor(i int) netip.Addr {
	if i < 0 || i > 0x03FFFFFF {
		panic(fmt.Sprintf("websim: address index %d out of range", i))
	}
	v := 0x3C000000 + uint32(i) // 60.0.0.0 + i
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// cdnCount is the number of shared CDN hosts public sub-resources load
// from.
const cdnCount = 8

// cdnHosts are the CDN hosts' names.
var cdnHosts = [cdnCount]string{
	"cdn0.webstatic.example", "cdn1.webstatic.example", "cdn2.webstatic.example", "cdn3.webstatic.example",
	"cdn4.webstatic.example", "cdn5.webstatic.example", "cdn6.webstatic.example", "cdn7.webstatic.example",
}

func cdnAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{50, 0, 0, byte(i + 1)})
}
