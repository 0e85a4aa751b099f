// Package localnet is the study's core detector: given the NetLog
// telemetry of a page visit, it identifies every request destined for
// the visitor's localhost (localhost, *.localhost, loopback 127.0.0.0/8
// and ::1, unspecified 0.0.0.0 and ::) or LAN (RFC1918 and fc00::/7),
// including requests that only appear as redirect targets, while
// filtering out traffic the browser itself generates. Link-local
// addresses (169.254/16 and fe80::/10) count as LAN in both families.
// Hosts are classified in canonical form through simnet's host model,
// the one the browser routes with.
package localnet

import (
	"sync"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/netlog"
	"github.com/knockandtalk/knockandtalk/internal/simnet"
)

// Dest classifies a request destination.
type Dest int

// Destination classes.
const (
	DestPublic Dest = iota
	DestLocalhost
	DestLAN
)

// String returns the class label used in reports.
func (d Dest) String() string {
	switch d {
	case DestLocalhost:
		return "localhost"
	case DestLAN:
		return "lan"
	default:
		return "public"
	}
}

// ClassifyHost classifies a canonical URL host (simnet.CanonicalHost,
// as simnet.SplitURL returns it) by its simnet.HostSpace: the loopback
// space is localhost, the private and link-local spaces are LAN.
func ClassifyHost(host string) Dest {
	switch simnet.HostSpace(host) {
	case simnet.SpaceLoopback:
		return DestLocalhost
	case simnet.SpacePrivate, simnet.SpaceLinkLocal:
		return DestLAN
	default:
		return DestPublic
	}
}

// Finding is one local-network request extracted from a visit's
// telemetry.
type Finding struct {
	// URL is the full local request URL.
	URL string
	// Scheme, Host, Port, Path are its components (simnet.SplitURL);
	// Host is canonical.
	Scheme simnet.Scheme
	Host   string
	Port   uint16
	Path   string
	// Dest is localhost or LAN.
	Dest Dest
	// At is the absolute visit time at which the request began.
	At time.Duration
	// Initiator is the page element that issued the request.
	Initiator string
	// NetError is the transport failure, if any.
	NetError string
	// StatusCode is the response status, if one arrived.
	StatusCode int
	// ViaRedirect marks findings detected as a redirect target rather
	// than a direct request ("websites can send a request to a local
	// resource, even if they can never receive the response", §3.1).
	ViaRedirect bool
	// SOPExempt marks WebSocket traffic, which the Same-Origin Policy
	// does not bind.
	SOPExempt bool
}

// Options tune the detector, primarily for ablation studies; the zero
// value disables nothing.
type Options struct {
	// IgnoreRedirectTargets drops findings that appear only as redirect
	// destinations. The paper deliberately includes them (§3.1).
	IgnoreRedirectTargets bool
	// KeepBrowserTraffic retains requests from BROWSER sources. The
	// paper filters them out by event source; keeping them shows the
	// false positives that filter prevents.
	KeepBrowserTraffic bool
}

// flowScratch recycles FlowStats' working memory from visit to visit,
// as the recorder recycles event buffers. Findings copy what they keep
// of a flow, so the scratch is free again once a call returns.
var flowScratch = sync.Pool{New: func() any { return new(netlog.FlowScratch) }}

// FromLog extracts all local-network findings from one visit's NetLog
// with the paper's configuration: browser-generated traffic (BROWSER
// sources) excluded, redirect targets included.
func FromLog(log *netlog.Log) []Finding {
	return FromLogOpts(log, Options{})
}

// FromLogOpts extracts findings under explicit detector options.
func FromLogOpts(log *netlog.Log, opts Options) []Finding {
	s := flowScratch.Get().(*netlog.FlowScratch)
	defer flowScratch.Put(s)
	var out []Finding
	for _, flow := range log.FlowStats(s) {
		if flow.Source.Type == netlog.SourceBrowser && !opts.KeepBrowserTraffic {
			continue
		}
		if f, ok := findingFromURL(flow.URL, &flow, false); ok {
			out = append(out, f)
		}
		if opts.IgnoreRedirectTargets {
			continue
		}
		for _, loc := range flow.RedirectedTo {
			if f, ok := findingFromURL(loc, &flow, true); ok {
				out = append(out, f)
			}
		}
	}
	return out
}

func findingFromURL(raw string, flow *netlog.Flow, viaRedirect bool) (Finding, bool) {
	u, err := simnet.SplitURL(raw)
	if err != nil {
		return Finding{}, false
	}
	dest := ClassifyHost(u.Host)
	if dest == DestPublic {
		return Finding{}, false
	}
	return Finding{
		URL:         raw,
		Scheme:      u.Scheme,
		Host:        u.Host,
		Port:        u.Port,
		Path:        u.Path,
		Dest:        dest,
		At:          flow.Start,
		Initiator:   flow.Initiator,
		NetError:    flow.NetError,
		StatusCode:  flow.StatusCode,
		ViaRedirect: viaRedirect,
		SOPExempt:   u.Scheme.WebSocket(),
	}, true
}
