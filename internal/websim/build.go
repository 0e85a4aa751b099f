package websim

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/knockandtalk/knockandtalk/internal/blocklist"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/simnet"
	"github.com/knockandtalk/knockandtalk/internal/tranco"
	"github.com/knockandtalk/knockandtalk/internal/webdoc"
	"github.com/knockandtalk/knockandtalk/internal/whois"
)

// redirect2020 lists the 2020 sites whose landing pages redirect to
// http://127.0.0.1/ (Table 11, "Redirect").
var redirect2020 = map[string]bool{
	"romadecade.org":   true,
	"fincaraiz.com.co": true,
}

// siteSpec gathers everything known about one domain before binding.
type siteSpec struct {
	domain    string
	rank      int
	category  blocklist.Category
	localRows []groundtruth.LocalhostRow
	lanRows   []groundtruth.LANRow
}

// World construction is split into two phases:
//
//   - The spec phase assembles the crawl population (Tranco snapshot or
//     blocklist) joined with the ground-truth row maps. It depends only
//     on (crawl, scale) — not on OS or seed — so it is computed once
//     per process and shared: a tri-OS campaign used to re-parse the
//     100K-domain snapshot and rebuild the row maps once per OS.
//   - The bind phase places each spec into a fresh World (DNS,
//     endpoints, pages, fates), which does depend on OS and seed. It
//     runs across a worker pool; every per-site value derives from
//     (seed, domain, index), so the result is independent of worker
//     interleaving.
type specKey struct {
	crawl groundtruth.CrawlID
	scale float64
}

var specCache sync.Map // specKey → []siteSpec (shared, read-only)

// bindWorkers overrides the bind pool size; 0 means GOMAXPROCS. Tests
// force it up to exercise the parallel path on single-CPU machines.
var bindWorkers int

// specsFor returns the cached crawl-level site specs, computing them on
// first use. The returned slice and its row slices are shared across
// worlds and must not be mutated.
func specsFor(crawl groundtruth.CrawlID, scale float64) ([]siteSpec, error) {
	key := specKey{crawl, scale}
	if v, ok := specCache.Load(key); ok {
		return v.([]siteSpec), nil
	}
	var specs []siteSpec
	switch crawl {
	case groundtruth.CrawlTop2020:
		snap, err := tranco.Snapshot2020(int(scale * tranco.DefaultSize))
		if err != nil {
			return nil, err
		}
		specs = topSpecs(snap, groundtruth.Top2020Localhost(), groundtruth.Top2020LAN())
	case groundtruth.CrawlTop2021:
		snap, err := tranco.Snapshot2021(int(scale * tranco.DefaultSize))
		if err != nil {
			return nil, err
		}
		specs = topSpecs(snap, groundtruth.Top2021Localhost(), groundtruth.Top2021LAN())
	case groundtruth.CrawlMalicious:
		specs = maliciousSpecs(blocklist.Population(scale))
	default:
		return nil, fmt.Errorf("websim: unknown crawl %q", crawl)
	}
	v, _ := specCache.LoadOrStore(key, specs)
	return v.([]siteSpec), nil
}

// TargetCount reports how many targets a crawl has at the given scale
// without binding a world — the fleet coordinator partitions legs into
// leases from counts alone, leaving world construction to the workers.
func TargetCount(crawl groundtruth.CrawlID, scale float64) (int, error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	specs, err := specsFor(crawl, scale)
	if err != nil {
		return 0, err
	}
	return len(specs), nil
}

// TargetDomain returns the domain at target index i for a crawl at the
// given scale — the same index Build assigns in World.Targets, so lease
// boundaries can be described by the domains they span.
func TargetDomain(crawl groundtruth.CrawlID, scale float64, i int) (string, error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	specs, err := specsFor(crawl, scale)
	if err != nil {
		return "", err
	}
	if i < 0 || i >= len(specs) {
		return "", fmt.Errorf("websim: target index %d out of range [0, %d)", i, len(specs))
	}
	return specs[i].domain, nil
}

// Build constructs the synthetic web for a crawl campaign on one OS.
// scale in (0, 1] shrinks the population proportionally while always
// retaining the ground-truth sites reachable at that scale (top-list
// scaling drops domains ranked beyond the horizon). The 2021 crawl had
// no Mac vantage; requesting it is an error.
func Build(crawl groundtruth.CrawlID, os hostenv.OS, scale float64, seed uint64) (*World, error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	if crawl == groundtruth.CrawlTop2021 && os == hostenv.MacOSX {
		return nil, fmt.Errorf("websim: the 2021 crawl has no Mac vantage (§3.2)")
	}
	specs, err := specsFor(crawl, scale)
	if err != nil {
		return nil, err
	}

	w := &World{
		Crawl: crawl, OS: os, Scale: scale,
		Net:   simnet.NewNetwork(seed),
		Whois: whois.NewRegistry(),
		fates: newFateTable(seed, crawl, os),
	}
	bindCDNs(w.Net)
	w.Targets = make([]Target, len(specs))

	workers := bindWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	const chunk = 256 // amortize the shared-counter hit without skewing tail latency
	for range min(workers, len(specs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := int(next.Add(chunk) - chunk); lo < len(specs); lo = int(next.Add(chunk) - chunk) {
				for i := lo; i < min(lo+chunk, len(specs)); i++ {
					w.bind(i, specs[i], seed)
				}
			}
		}()
	}
	wg.Wait()
	return w, nil
}

func topSpecs(snap *tranco.Snapshot, localRows []groundtruth.LocalhostRow, lanRows []groundtruth.LANRow) []siteSpec {
	local := make(map[string][]groundtruth.LocalhostRow, len(localRows))
	for _, r := range localRows {
		local[r.Domain] = append(local[r.Domain], r)
	}
	lan := make(map[string][]groundtruth.LANRow, len(lanRows))
	for _, r := range lanRows {
		lan[r.Domain] = append(lan[r.Domain], r)
	}
	domains := snap.Domains()
	specs := make([]siteSpec, 0, len(domains))
	for i, d := range domains {
		specs = append(specs, siteSpec{
			domain:    d,
			rank:      i + 1,
			localRows: local[d],
			lanRows:   lan[d],
		})
	}
	return specs
}

func maliciousSpecs(pop []blocklist.Entry) []siteSpec {
	local := make(map[string][]groundtruth.LocalhostRow)
	for _, r := range groundtruth.MaliciousLocalhost() {
		local[r.Domain] = append(local[r.Domain], r)
	}
	lan := make(map[string][]groundtruth.LANRow)
	for _, r := range groundtruth.MaliciousLAN() {
		lan[r.Domain] = append(lan[r.Domain], r)
	}
	specs := make([]siteSpec, 0, len(pop))
	for _, e := range pop {
		specs = append(specs, siteSpec{
			domain:    e.Domain,
			category:  e.Category,
			localRows: local[e.Domain],
			lanRows:   lan[e.Domain],
		})
	}
	return specs
}

func bindCDNs(net *simnet.Network) {
	for i := 0; i < cdnCount; i++ {
		host, addr := cdnHosts[i], cdnAddr(i)
		net.Resolver.Add(host, addr)
		net.BindService(addr, 443, &simnet.TLSInfo{CommonName: host}, staticAsset())
	}
	// The crawler's connectivity check target.
	net.AddHost(netip.MustParseAddr("8.8.8.8"))
}

// bind places one site into the world: DNS, transport endpoint, and the
// page it serves (or its failure fate). Safe to call from concurrent
// bind workers: every drawn value depends only on (seed, domain, i),
// registration targets are lock-protected, and each call writes its own
// Targets slot.
func (w *World) bind(i int, spec siteSpec, seed uint64) {
	isGT := len(spec.localRows) > 0 || len(spec.lanRows) > 0
	fate := w.fates.fateFor(spec.domain, spec.category, isGT)

	// Landing scheme: anti-abuse deployers serve over HTTPS (a PNA
	// secure-context prerequisite); otherwise hash-assigned, with top
	// sites mostly HTTPS and malicious sites mostly plain HTTP.
	https := hash01(seed, "https", spec.domain) < 0.70
	if spec.category != "" {
		https = hash01(seed, "https", spec.domain) < 0.15
	}
	for _, r := range spec.localRows {
		if r.Class == groundtruth.ClassFraudDetection || r.Class == groundtruth.ClassBotDetection || r.Class == groundtruth.ClassNativeApp {
			https = true
		}
	}
	if fate == FateBadCert || fate == FateSSLError {
		https = true
	}

	scheme, port := "http", uint16(80)
	if https {
		scheme, port = "https", 443
	}
	w.Targets[i] = Target{
		Domain:   spec.domain,
		URL:      fmt.Sprintf("%s://%s/", scheme, spec.domain),
		Rank:     spec.rank,
		Category: spec.category,
	}

	if fate == FateNXDomain {
		return // never registered in DNS
	}
	addr := addrFor(i)
	w.Net.Resolver.Add(spec.domain, addr)

	var tls *simnet.TLSInfo
	if https {
		tls = &simnet.TLSInfo{CommonName: spec.domain, SubjectAltNames: []string{"*." + spec.domain}}
	}
	switch fate {
	case FateRefused:
		w.Net.AddHost(addr)
	case FateReset:
		w.Net.Bind(addr, port, simnet.Endpoint{Outcome: simnet.DialReset, TLS: tls})
	case FateBadCert:
		tls = &simnet.TLSInfo{CommonName: fmt.Sprintf("default-vhost-%04x.hosting.example", hashN(seed, 1<<16, "cert", spec.domain))}
		w.Net.BindService(addr, port, tls, staticAsset())
	case FateSSLError:
		tls = &simnet.TLSInfo{CommonName: spec.domain, Broken: true}
		w.Net.BindService(addr, port, tls, staticAsset())
	case FateEmptyResponse:
		w.Net.BindService(addr, port, tls, rawListener())
	default: // FateOK
		if w.Crawl == groundtruth.CrawlTop2020 && redirect2020[spec.domain] && localActiveHere(spec, w.OS) {
			w.Net.BindService(addr, port, tls, redirectService("http://127.0.0.1/"))
			return
		}
		w.Net.BindService(addr, port, tls, multiPageService(map[string]*webdoc.Page{
			"/":       w.buildPage(spec, scheme, seed),
			LoginPath: w.loginPage(spec, scheme, seed),
		}))
	}
}

// localActiveHere reports whether any ground-truth row for the spec is
// active on the world's OS.
func localActiveHere(spec siteSpec, os hostenv.OS) bool {
	for _, r := range spec.localRows {
		if r.OS.Has(osBit(os)) {
			return true
		}
	}
	for _, r := range spec.lanRows {
		if r.OS.Has(osBit(os)) {
			return true
		}
	}
	return false
}

// buildPage assembles the document a site serves on this OS.
func (w *World) buildPage(spec siteSpec, scheme string, seed uint64) *webdoc.Page {
	page := &webdoc.Page{
		URL:      fmt.Sprintf("%s://%s/", scheme, spec.domain),
		BodySize: 4096 + int(hashN(seed, 120000, "body", spec.domain)),
		Steps:    subresourceSteps(seed, spec.domain),
	}
	for _, row := range spec.localRows {
		if w.Crawl == groundtruth.CrawlTop2020 && redirect2020[row.Domain] {
			continue // modeled as a landing redirect, not a page step
		}
		probes := w.attachThreatMetrix(page, row, localhostSteps(seed, row, w.OS), seed)
		page.Steps = append(page.Steps, probes...)
	}
	for _, row := range spec.lanRows {
		page.Steps = append(page.Steps, lanSteps(seed, row, w.OS)...)
	}
	return page
}

// redirectService answers every request with a 302 to the location.
func redirectService(location string) simnet.Service {
	return simnet.ServiceFunc(func(req *simnet.Request) *simnet.Response {
		return &simnet.Response{Status: 302, Location: location}
	})
}

// staticAsset serves a small non-HTML resource.
func staticAsset() simnet.Service {
	return simnet.ServiceFunc(func(req *simnet.Request) *simnet.Response {
		return &simnet.Response{Status: 200, ContentType: "application/octet-stream", BodySize: 2048}
	})
}

// rawListener accepts TCP but speaks no HTTP, producing an empty-response
// error at the HTTP layer.
func rawListener() simnet.Service {
	return simnet.ServiceFunc(func(req *simnet.Request) *simnet.Response {
		return &simnet.Response{Status: 0}
	})
}
