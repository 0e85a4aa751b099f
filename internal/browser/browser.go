// Package browser simulates the measurement browser: a Google Chrome v84
// instance with a clean incognito profile, driven for one 20-second page
// visit at a time, recording every network event on its (virtual)
// network stack in NetLog form.
//
// The browser runs on a machine (hostenv.Profile) attached to the public
// synthetic web (simnet.Network). Requests to every non-public address
// space (simnet.AddrSpace) route to the machine's own localhost table and
// LAN inventory — the mechanism that makes a website's local probes succeed
// or fail depending on what the visitor's host is running.
//
// Fidelity notes, mirroring §3.1 of the paper:
//   - Safe Browsing is a toggle and is disabled during crawls so that
//     malicious pages load.
//   - Cross-origin HTTP(S) requests are sent regardless of the
//     Same-Origin Policy (the response is merely opaque to the page);
//     WebSocket requests are exempt from SOP entirely. Both facts are
//     recorded as flow parameters.
//   - The browser itself generates background traffic (update checks,
//     variations fetches) under a BROWSER source, which the analysis
//     layer must filter out by source type.
package browser

import (
	"net/netip"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/netlog"
	"github.com/knockandtalk/knockandtalk/internal/simnet"
	"github.com/knockandtalk/knockandtalk/internal/webdoc"
)

// Options configures a browser instance.
type Options struct {
	// Window is how long a page visit is monitored after navigation
	// starts. The study used 20 seconds (§3.1).
	Window time.Duration
	// MaxRedirects bounds redirect chains, as Chrome does (20).
	MaxRedirects int
	// SafeBrowsing enables the Safe Browsing interstitial. The study
	// disables it so malicious pages are reachable.
	SafeBrowsing bool
	// SafeBrowsingList is the blocked-domain set consulted when
	// SafeBrowsing is on.
	SafeBrowsingList map[string]bool
	// Background enables browser-internal traffic emission.
	Background bool
	// MaxLogEvents bounds the per-visit NetLog capture (0 = unbounded),
	// mirroring Chrome's bounded capture modes.
	MaxLogEvents int
	// ParseHTML requests real markup from the synthetic web and runs
	// the full tokenize→extract→interpret pipeline instead of the
	// precompiled fast path. Slower; equivalence-tested.
	ParseHTML bool
	// Conditions is the active network-condition chain. Nil means the
	// nominal (unimpaired) conditions of the machine's vantage.
	Conditions *simnet.Conditions
}

// DefaultOptions returns the crawl configuration of §3.1.
func DefaultOptions() Options {
	return Options{
		Window:       20 * time.Second,
		MaxRedirects: 20,
		SafeBrowsing: false,
		Background:   true,
	}
}

// Browser is one Chrome instance bound to a machine and a network. It
// visits one page at a time: a crawl runs one Browser per worker.
type Browser struct {
	Profile *hostenv.Profile
	Net     *simnet.Network
	Opts    Options

	// cond is the resolved condition chain (never nil) and flowVantage
	// the identity its per-flow hashes key on.
	cond        *simnet.Conditions
	flowVantage string
	// sched and pool are the visit clock and the keep-alive sockets,
	// emptied at the start of every visit and kept for their storage.
	sched *simnet.Scheduler
	pool  map[poolKey]netlog.Source
}

// poolKey identifies a reusable connection: TLS and cleartext sockets
// to one address and port are kept apart.
type poolKey struct {
	secure bool
	addr   netip.AddrPort
}

// New returns a browser on the given machine, attached to the given
// public network.
func New(profile *hostenv.Profile, net *simnet.Network, opts Options) *Browser {
	if opts.Window <= 0 {
		opts.Window = 20 * time.Second
	}
	if opts.MaxRedirects <= 0 {
		opts.MaxRedirects = 20
	}
	cond := opts.Conditions
	if cond == nil {
		cond = simnet.Nominal(profile.Vantage)
	}
	vantage := cond.FlowVantage
	if vantage == "" {
		vantage = profile.Vantage.Name
	}
	return &Browser{Profile: profile, Net: net, Opts: opts, cond: cond, flowVantage: vantage,
		sched: simnet.NewScheduler(), pool: map[poolKey]netlog.Source{}}
}

// VisitResult is the outcome of one page visit.
type VisitResult struct {
	// URL is the requested URL; FinalURL the post-redirect destination.
	URL      string
	FinalURL string
	// Err is the page-level load error, or OK.
	Err simnet.NetError
	// CommittedAt is when the landing document finished loading on the
	// visit clock; zero if the load failed.
	CommittedAt time.Duration
	// Log is the complete NetLog capture for the visit.
	Log *netlog.Log
}

// OK reports whether the landing page loaded successfully.
func (v *VisitResult) OK() bool { return !v.Err.IsFailure() }

// Visit loads a URL with a fresh profile and returns the telemetry
// captured over the observation window. Each visit runs on its own
// virtual clock starting at zero.
func (b *Browser) Visit(rawURL string) *VisitResult {
	res := &VisitResult{URL: rawURL, FinalURL: rawURL, Err: simnet.OK}
	rec := netlog.NewRecorder()
	if b.Opts.MaxLogEvents > 0 {
		rec = netlog.NewBoundedRecorder(b.Opts.MaxLogEvents)
	}
	sched := b.sched
	sched.Reset()
	clear(b.pool)

	v := &visit{b: b, rec: rec, sched: sched, res: res}
	if b.Opts.Background {
		v.emitBackground()
	}

	if b.Opts.SafeBrowsing && b.Opts.SafeBrowsingList != nil {
		if u, err := simnet.SplitURL(rawURL); err == nil && b.Opts.SafeBrowsingList[u.Host] {
			res.Err = simnet.ErrBlockedByClient
			src := rec.NewSource(netlog.SourceURLRequest)
			rec.Point(0, netlog.TypeURLRequestError, src,
				netlog.Params{}.WithURL(rawURL).WithNetError(string(simnet.ErrBlockedByClient)))
			res.Log = rec.TakeLog()
			return res
		}
	}

	v.fetch(request{rawURL: rawURL, initiator: "navigation", navigation: true}, func(out fetchOutcome) {
		res.Err = out.err
		res.FinalURL = out.finalURL
		if out.err.IsFailure() {
			return
		}
		res.CommittedAt = sched.Now()
		var page *webdoc.Page
		switch doc := out.document.(type) {
		case *webdoc.Page:
			page = doc
		case []byte:
			// Raw HTML: the real pipeline — tokenize, extract, run
			// inline page scripts.
			page = compileHTML(doc, out.finalURL, b.Profile.OS.String())
		}
		if page != nil {
			// The scheduler runs same-time events in scheduling order,
			// so page order here runs the steps in SortedSteps order.
			base := res.CommittedAt
			for _, step := range page.Steps {
				sched.At(base+step.At, func() {
					v.fetch(request{rawURL: step.URL, initiator: step.Initiator}, func(fetchOutcome) {})
				})
			}
		}
	})
	sched.RunUntil(b.Opts.Window)
	res.Log = rec.TakeLog()
	return res
}

// visit carries the per-visit state shared by the fetch pipeline.
type visit struct {
	b     *Browser
	rec   *netlog.Recorder
	sched *simnet.Scheduler
	res   *VisitResult
}

// emitBackground produces the browser-internal traffic every Chrome
// instance generates regardless of the page: an update check and a field
// trials fetch, attributed to BROWSER sources so analysis can filter
// them. One of them targets a loopback-looking URL on purpose — Chrome's
// own crash handler endpoint — exercising the pipeline's source filter.
func (v *visit) emitBackground() {
	internal := []struct {
		at  time.Duration
		url string
	}{
		{120 * time.Millisecond, "https://update.googleapis.chrome.internal/service/update2"},
		{340 * time.Millisecond, "https://clientservices.googleapis.chrome.internal/chrome-variations/seed"},
		{500 * time.Millisecond, "http://127.0.0.1:49152/crashpad/ping"},
	}
	for _, bg := range internal {
		src := v.rec.NewSource(netlog.SourceBrowser)
		v.rec.Begin(bg.at, netlog.TypeBrowserBackgroundRequest, src, netlog.Params{}.WithURL(bg.url))
		v.rec.End(bg.at+25*time.Millisecond, netlog.TypeBrowserBackgroundRequest, src, netlog.Params{})
	}
}

// request is a fetch pipeline input.
type request struct {
	rawURL     string
	initiator  string
	navigation bool
	redirects  int
	source     netlog.Source // reused across a redirect chain; zero for new
}

// fetchOutcome is the pipeline result delivered to the continuation.
type fetchOutcome struct {
	err      simnet.NetError
	status   int
	finalURL string
	document any
}
