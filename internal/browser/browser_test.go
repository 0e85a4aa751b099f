package browser

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/netlog"
	"github.com/knockandtalk/knockandtalk/internal/simnet"
	"github.com/knockandtalk/knockandtalk/internal/webdoc"
)

// testWorld builds a tiny public network with one site.
func testWorld(page *webdoc.Page) *simnet.Network {
	net := simnet.NewNetwork(7)
	addr := netip.MustParseAddr("203.0.113.10")
	net.Resolver.Add("site.test", addr)
	net.BindService(addr, 443, &simnet.TLSInfo{CommonName: "site.test"}, simnet.ServiceFunc(func(req *simnet.Request) *simnet.Response {
		return &simnet.Response{Status: 200, ContentType: "text/html", BodySize: 5000, Document: page}
	}))
	return net
}

func newTestBrowser(net *simnet.Network, os hostenv.OS) *Browser {
	opts := DefaultOptions()
	opts.Background = false
	return New(hostenv.DefaultProfile(os), net, opts)
}

func TestVisitSuccessfulLoad(t *testing.T) {
	page := &webdoc.Page{URL: "https://site.test/"}
	b := newTestBrowser(testWorld(page), hostenv.Linux)
	res := b.Visit("https://site.test/")
	if !res.OK() {
		t.Fatalf("load failed: %v", res.Err)
	}
	if res.CommittedAt <= 0 {
		t.Error("CommittedAt not set")
	}
	flows := res.Log.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(flows))
	}
	if flows[0].StatusCode != 200 || flows[0].Failed() {
		t.Errorf("landing flow = %+v", flows[0])
	}
}

func TestVisitNXDomain(t *testing.T) {
	b := newTestBrowser(simnet.NewNetwork(1), hostenv.Linux)
	res := b.Visit("http://unresolvable.test/")
	if res.Err != simnet.ErrNameNotResolved {
		t.Fatalf("err = %v, want ERR_NAME_NOT_RESOLVED", res.Err)
	}
	// The resolver job and the failed request must both be logged.
	var sawDNS, sawErr bool
	for _, e := range res.Log.Events {
		if e.Type == netlog.TypeHostResolverJob {
			sawDNS = true
		}
		if e.Type == netlog.TypeURLRequestError && e.ParamString("net_error") == "ERR_NAME_NOT_RESOLVED" {
			sawErr = true
		}
	}
	if !sawDNS || !sawErr {
		t.Errorf("missing telemetry: dns=%v err=%v", sawDNS, sawErr)
	}
}

func TestVisitConnectionRefused(t *testing.T) {
	net := simnet.NewNetwork(1)
	addr := netip.MustParseAddr("203.0.113.11")
	net.Resolver.Add("refuser.test", addr)
	net.AddHost(addr) // host up, no listener
	b := newTestBrowser(net, hostenv.Linux)
	res := b.Visit("http://refuser.test/")
	if res.Err != simnet.ErrConnectionRefused {
		t.Fatalf("err = %v", res.Err)
	}
}

func TestVisitBadCertificate(t *testing.T) {
	net := simnet.NewNetwork(1)
	addr := netip.MustParseAddr("203.0.113.12")
	net.Resolver.Add("badcert.test", addr)
	net.BindService(addr, 443, &simnet.TLSInfo{CommonName: "other.test"}, simnet.ServiceFunc(func(*simnet.Request) *simnet.Response {
		return &simnet.Response{Status: 200}
	}))
	b := newTestBrowser(net, hostenv.Linux)
	res := b.Visit("https://badcert.test/")
	if res.Err != simnet.ErrCertCommonNameBad {
		t.Fatalf("err = %v, want ERR_CERT_COMMON_NAME_INVALID", res.Err)
	}
}

func TestVisitExecutesPageSteps(t *testing.T) {
	page := &webdoc.Page{
		URL: "https://site.test/",
		Steps: []webdoc.Step{
			{At: 2 * time.Second, URL: "wss://localhost:5939/", Initiator: "blob:threatmetrix"},
			{At: 1 * time.Second, URL: "http://127.0.0.1:8080/wp-content/x.jpg", Initiator: "img"},
		},
	}
	b := newTestBrowser(testWorld(page), hostenv.Windows)
	res := b.Visit("https://site.test/")
	if !res.OK() {
		t.Fatalf("load failed: %v", res.Err)
	}
	var urls []string
	for _, f := range res.Log.Flows() {
		urls = append(urls, f.URL)
	}
	want := []string{"wss://localhost:5939/", "http://127.0.0.1:8080/wp-content/x.jpg"}
	for _, w := range want {
		found := false
		for _, u := range urls {
			if u == w {
				found = true
			}
		}
		if !found {
			t.Errorf("step %q not executed; flows: %v", w, urls)
		}
	}
	// Steps run after commit, in At order, at commit+At.
	flows := res.Log.Flows()
	var first, second *netlog.Flow
	for i := range flows {
		switch flows[i].URL {
		case want[1]:
			first = &flows[i]
		case want[0]:
			second = &flows[i]
		}
	}
	if first == nil || second == nil {
		t.Fatal("local flows missing")
	}
	if !(first.Start < second.Start) {
		t.Error("steps not executed in At order")
	}
	if first.Start < res.CommittedAt+time.Second {
		t.Errorf("step started at %v, before commit(%v)+1s", first.Start, res.CommittedAt)
	}
}

func TestVisitWindowCutsLateSteps(t *testing.T) {
	page := &webdoc.Page{
		URL: "https://site.test/",
		Steps: []webdoc.Step{
			{At: 50 * time.Second, URL: "http://localhost:9999/late", Initiator: "script"},
		},
	}
	b := newTestBrowser(testWorld(page), hostenv.Linux)
	res := b.Visit("https://site.test/")
	for _, f := range res.Log.Flows() {
		if strings.Contains(f.URL, "/late") {
			t.Error("a step beyond the 20s window was executed")
		}
	}
}

func TestLocalhostProbeOutcomes(t *testing.T) {
	// Closed localhost port → refused, fast. Open non-WS port (Windows
	// RDP on 3389): a WSS probe dies at the TLS layer (RDP speaks no
	// TLS), a plain WS probe gets an invalid handshake. All three are
	// logged — the request attempt is the observable, not its success.
	page := &webdoc.Page{
		URL: "https://site.test/",
		Steps: []webdoc.Step{
			{At: time.Second, URL: "wss://localhost:5939/", Initiator: "blob:threatmetrix"},
			{At: time.Second, URL: "wss://localhost:3389/", Initiator: "blob:threatmetrix"},
			{At: time.Second, URL: "ws://localhost:3389/", Initiator: "script"},
		},
	}
	b := newTestBrowser(testWorld(page), hostenv.Windows)
	res := b.Visit("https://site.test/")
	var closed, openTLS, openWS *netlog.Flow
	flows := res.Log.Flows()
	for i := range flows {
		switch flows[i].URL {
		case "wss://localhost:5939/":
			closed = &flows[i]
		case "wss://localhost:3389/":
			openTLS = &flows[i]
		case "ws://localhost:3389/":
			openWS = &flows[i]
		}
	}
	if closed == nil || openTLS == nil || openWS == nil {
		t.Fatal("probe flows missing")
	}
	if closed.NetError != "ERR_CONNECTION_REFUSED" {
		t.Errorf("closed port error = %q", closed.NetError)
	}
	// The refused probe must resolve fast (timing side channel, §4.3.2).
	if closed.Duration() > 100*time.Millisecond {
		t.Errorf("refused localhost probe took %v", closed.Duration())
	}
	if openTLS.NetError != "ERR_SSL_PROTOCOL_ERROR" {
		t.Errorf("open raw port over WSS error = %q", openTLS.NetError)
	}
	if openWS.NetError != "ERR_INVALID_HTTP_RESPONSE" {
		t.Errorf("open raw port over WS error = %q", openWS.NetError)
	}
}

// TestLocalhostSubdomainReachesListener pins that every *.localhost
// name, in any case and with a trailing dot, resolves to loopback
// without DNS and reaches the machine's own listener, as the detector
// counts it.
func TestLocalhostSubdomainReachesListener(t *testing.T) {
	page := &webdoc.Page{
		URL: "https://site.test/",
		Steps: []webdoc.Step{
			{At: time.Second, URL: "http://FOO.LOCALHOST:5939/", Initiator: "script"},
			{At: time.Second, URL: "http://bar.localhost.:5939/", Initiator: "script"},
		},
	}
	b := newTestBrowser(testWorld(page), hostenv.Windows)
	served := 0
	b.Profile.ListenLocalService(5939, simnet.ServiceFunc(func(req *simnet.Request) *simnet.Response {
		served++
		return &simnet.Response{Status: 200}
	}))
	flows := b.Visit("https://site.test/").Log.Flows()
	for _, f := range flows {
		if f.URL != "https://site.test/" && (f.NetError != "" || f.StatusCode != 200) {
			t.Errorf("%s: error %q status %d, want a 200 from the local listener", f.URL, f.NetError, f.StatusCode)
		}
	}
	if len(flows) != 3 || served != 2 {
		t.Fatalf("%d flows, listener served %d, want 3 flows and 2 requests", len(flows), served)
	}
}

func TestRedirectToLocalhostIsFollowedAndLogged(t *testing.T) {
	net := simnet.NewNetwork(1)
	addr := netip.MustParseAddr("203.0.113.13")
	net.Resolver.Add("redirector.test", addr)
	net.BindService(addr, 80, nil, simnet.ServiceFunc(func(*simnet.Request) *simnet.Response {
		return &simnet.Response{Status: 302, Location: "http://127.0.0.1/"}
	}))
	b := newTestBrowser(net, hostenv.Linux)
	res := b.Visit("http://redirector.test/")
	// The local destination refuses, so the navigation fails — but the
	// redirect and the attempt must be visible in telemetry.
	if res.Err != simnet.ErrConnectionRefused {
		t.Fatalf("err = %v", res.Err)
	}
	flows := res.Log.Flows()
	if len(flows) != 1 {
		t.Fatalf("redirect chain must stay one flow, got %d", len(flows))
	}
	f := flows[0]
	if len(f.RedirectedTo) != 1 || f.RedirectedTo[0] != "http://127.0.0.1/" {
		t.Errorf("redirects = %v", f.RedirectedTo)
	}
}

func TestRedirectLoopAborts(t *testing.T) {
	net := simnet.NewNetwork(1)
	addr := netip.MustParseAddr("203.0.113.14")
	net.Resolver.Add("loop.test", addr)
	net.BindService(addr, 80, nil, simnet.ServiceFunc(func(*simnet.Request) *simnet.Response {
		return &simnet.Response{Status: 301, Location: "http://loop.test/"}
	}))
	b := newTestBrowser(net, hostenv.Linux)
	res := b.Visit("http://loop.test/")
	if res.Err != simnet.ErrTooManyRedirects {
		t.Fatalf("err = %v, want ERR_TOO_MANY_REDIRECTS", res.Err)
	}
}

func TestSafeBrowsingToggle(t *testing.T) {
	page := &webdoc.Page{URL: "https://site.test/"}
	net := testWorld(page)
	opts := DefaultOptions()
	opts.Background = false
	opts.SafeBrowsing = true
	opts.SafeBrowsingList = map[string]bool{"site.test": true}
	b := New(hostenv.DefaultProfile(hostenv.Linux), net, opts)
	if res := b.Visit("https://site.test/"); res.Err != simnet.ErrBlockedByClient {
		t.Fatalf("Safe Browsing on: err = %v", res.Err)
	}
	// The crawl configuration disables it (§3.1).
	opts.SafeBrowsing = false
	b = New(hostenv.DefaultProfile(hostenv.Linux), net, opts)
	if res := b.Visit("https://site.test/"); !res.OK() {
		t.Fatalf("Safe Browsing off: err = %v", res.Err)
	}
}

func TestBackgroundTrafficUsesBrowserSource(t *testing.T) {
	page := &webdoc.Page{URL: "https://site.test/"}
	opts := DefaultOptions()
	opts.Background = true
	b := New(hostenv.DefaultProfile(hostenv.Linux), testWorld(page), opts)
	res := b.Visit("https://site.test/")
	bg := 0
	for _, e := range res.Log.Events {
		if e.Source.Type == netlog.SourceBrowser {
			bg++
			if e.Type != netlog.TypeBrowserBackgroundRequest {
				t.Errorf("browser source with event type %v", e.Type)
			}
		}
	}
	if bg == 0 {
		t.Error("no browser-internal traffic emitted")
	}
}

func TestWebSocketSOPExemptionRecorded(t *testing.T) {
	page := &webdoc.Page{
		URL:   "https://site.test/",
		Steps: []webdoc.Step{{At: time.Second, URL: "ws://localhost:28337/", Initiator: "script"}},
	}
	b := newTestBrowser(testWorld(page), hostenv.Linux)
	res := b.Visit("https://site.test/")
	for _, f := range res.Log.Flows() {
		if f.URL == "ws://localhost:28337/" {
			for _, e := range f.Events {
				if e.Type == netlog.TypeRequestAlive && e.Phase == netlog.PhaseBegin {
					if exempt, _ := e.ParamBool("sop_exempt"); !exempt {
						t.Error("WebSocket flow not marked SOP-exempt")
					}
					return
				}
			}
		}
	}
	t.Fatal("WebSocket flow not found")
}

func TestVisitUnsupportedScheme(t *testing.T) {
	b := newTestBrowser(simnet.NewNetwork(1), hostenv.Linux)
	res := b.Visit("ftp://site.test/")
	if !res.Err.IsFailure() {
		t.Error("unsupported scheme must fail")
	}
}

func TestEmptyResponseFromRawListener(t *testing.T) {
	net := simnet.NewNetwork(1)
	addr := netip.MustParseAddr("203.0.113.15")
	net.Resolver.Add("raw.test", addr)
	net.BindService(addr, 80, nil, simnet.ServiceFunc(func(*simnet.Request) *simnet.Response {
		return &simnet.Response{Status: 0}
	}))
	b := newTestBrowser(net, hostenv.Linux)
	if res := b.Visit("http://raw.test/"); res.Err != simnet.ErrEmptyResponse {
		t.Fatalf("err = %v, want ERR_EMPTY_RESPONSE", res.Err)
	}
}

func TestVisitsAreIndependent(t *testing.T) {
	page := &webdoc.Page{URL: "https://site.test/"}
	b := newTestBrowser(testWorld(page), hostenv.Linux)
	a := b.Visit("https://site.test/")
	c := b.Visit("https://site.test/")
	if a.Log.Len() != c.Log.Len() {
		t.Errorf("repeat visit telemetry differs: %d vs %d events", a.Log.Len(), c.Log.Len())
	}
	if a.CommittedAt != c.CommittedAt {
		t.Errorf("repeat visit timing differs: %v vs %v", a.CommittedAt, c.CommittedAt)
	}
}

func TestBoundedCapture(t *testing.T) {
	page := &webdoc.Page{URL: "https://site.test/"}
	for i := 0; i < 30; i++ {
		page.Steps = append(page.Steps, webdoc.Step{
			At:  time.Duration(i) * 100 * time.Millisecond,
			URL: fmt.Sprintf("http://127.0.0.1:%d/x", 8000+i), Initiator: "script",
		})
	}
	opts := DefaultOptions()
	opts.Background = false
	opts.MaxLogEvents = 20
	b := New(hostenv.DefaultProfile(hostenv.Linux), testWorld(page), opts)
	res := b.Visit("https://site.test/")
	if res.Log.Len() > 20 {
		t.Errorf("capture exceeded bound: %d events", res.Log.Len())
	}
}

func TestPanickingServiceBehavesLikeCrashedServer(t *testing.T) {
	net := simnet.NewNetwork(1)
	addr := netip.MustParseAddr("203.0.113.16")
	net.Resolver.Add("crasher.test", addr)
	net.BindService(addr, 80, nil, simnet.ServiceFunc(func(*simnet.Request) *simnet.Response {
		panic("buggy site implementation")
	}))
	b := newTestBrowser(net, hostenv.Linux)
	res := b.Visit("http://crasher.test/")
	if res.Err != simnet.ErrEmptyResponse {
		t.Fatalf("err = %v, want ERR_EMPTY_RESPONSE (crashed server)", res.Err)
	}
}

func TestConnectionKeepAliveReuse(t *testing.T) {
	// Two fetches to the same origin share one socket; the WebSocket to
	// the same origin opens a fresh one.
	page := &webdoc.Page{
		URL: "https://site.test/",
		Steps: []webdoc.Step{
			{At: 100 * time.Millisecond, URL: "https://site.test/a.js", Initiator: "parser"},
			{At: 200 * time.Millisecond, URL: "https://site.test/b.js", Initiator: "parser"},
			{At: 300 * time.Millisecond, URL: "wss://site.test/rtc", Initiator: "script"},
		},
	}
	b := newTestBrowser(testWorld(page), hostenv.Linux)
	res := b.Visit("https://site.test/")
	if !res.OK() {
		t.Fatal(res.Err)
	}
	connects, reuses := 0, 0
	for _, e := range res.Log.Events {
		switch {
		case e.Type == netlog.TypeTCPConnect && e.Phase == netlog.PhaseBegin:
			connects++
		case e.Type == netlog.TypeSocketInUse:
			reuses++
		}
	}
	// One connect for the landing page (reused by both subresources)
	// plus one fresh connect for the WebSocket.
	if connects != 2 {
		t.Errorf("TCP connects = %d, want 2 (keep-alive + fresh WS socket)", connects)
	}
	if reuses != 2 {
		t.Errorf("socket reuses = %d, want 2", reuses)
	}
}

// Visit schedules a page's steps in page order. The scheduler runs
// same-time events in scheduling order, and the steps are scheduled
// back to back, so page order runs them exactly as scheduling
// SortedSteps would, interleaved the same way with events queued
// before and after them. Script offsets are never negative, so no step
// is clamped to the present.
func TestPageOrderRunsAsSortedSteps(t *testing.T) {
	const base = time.Second // the page's commit time
	f := func(ats, before, after []uint8) bool {
		page := &webdoc.Page{}
		for i, at := range ats {
			page.Steps = append(page.Steps, webdoc.Step{At: time.Duration(at%16) * time.Millisecond, URL: fmt.Sprint("step", i)})
		}
		run := func(steps []webdoc.Step) []string {
			s := simnet.NewScheduler()
			var got []string
			other := func(name string, ats []uint8) {
				for i, at := range ats {
					s.At(base+time.Duration(at%20)*time.Millisecond, func() { got = append(got, fmt.Sprint(name, i)) })
				}
			}
			other("before", before)
			s.At(base, func() {
				for _, step := range steps {
					s.At(s.Now()+step.At, func() { got = append(got, step.URL) })
				}
				other("after", after)
			})
			s.Run()
			return got
		}
		return slices.Equal(run(page.Steps), run(page.SortedSteps()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A reused browser's visits match a fresh browser's, although the
// earlier visit left a step queued past its window and a kept-alive
// socket in the pool.
func TestReusedBrowserMatchesFresh(t *testing.T) {
	page := &webdoc.Page{URL: "https://site.test/", Steps: []webdoc.Step{
		{At: 100 * time.Millisecond, URL: "https://site.test/a.js", Initiator: "parser"},
		{At: 30 * time.Second, URL: "http://127.0.0.1:8000/late", Initiator: "script"},
	}}
	net := testWorld(page)
	reused := newTestBrowser(net, hostenv.Linux)
	reused.Visit("https://site.test/")
	a, b := reused.Visit("https://site.test/"), newTestBrowser(net, hostenv.Linux).Visit("https://site.test/")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reused browser's visit differs:\n%+v\nfresh:\n%+v", a.Log.Events, b.Log.Events)
	}
}

// The allocation budget of a warm browser's visit: a fixed cost per
// visit and a per-fetch cost on a kept-alive socket, most of it the
// fetch pipeline's continuations. Name tests, the keep-alive key and
// the visit clock allocate nothing.
func TestVisitAllocs(t *testing.T) {
	const maxPerVisit, maxPerFetch = 20, 13
	allocs := func(steps int) float64 {
		page := &webdoc.Page{URL: "https://site.test/"}
		for i := 0; i < steps; i++ {
			page.Steps = append(page.Steps, webdoc.Step{At: time.Duration(i) * time.Millisecond, URL: fmt.Sprintf("https://site.test/a%d.js", i)})
		}
		b := newTestBrowser(testWorld(page), hostenv.Linux)
		b.Visit("https://site.test/").Log.Recycle()
		return testing.AllocsPerRun(50, func() { b.Visit("https://site.test/").Log.Recycle() })
	}
	perVisit := allocs(0)
	perFetch := (allocs(10) - perVisit) / 10
	if perVisit > maxPerVisit || perFetch > maxPerFetch {
		t.Errorf("%v allocs per visit and %v per kept-alive fetch, budget %d and %d", perVisit, perFetch, maxPerVisit, maxPerFetch)
	}
}
