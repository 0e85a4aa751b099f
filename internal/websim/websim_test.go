package websim

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/simnet"
	"github.com/knockandtalk/knockandtalk/internal/webdoc"
)

const testSeed = 0xC0FFEE

func TestAddrForDisjointFromLocalRanges(t *testing.T) {
	for _, i := range []int{0, 1, 99999, 245000} {
		a := addrFor(i)
		if a.IsLoopback() || a.IsPrivate() || !a.IsValid() {
			t.Errorf("addrFor(%d) = %v overlaps local ranges", i, a)
		}
	}
	if addrFor(0) == addrFor(1) {
		t.Error("addresses must be unique")
	}
}

func TestFateDistributionTop2020(t *testing.T) {
	counts := map[Fate]int{}
	ft := newFateTable(testSeed, groundtruth.CrawlTop2020, hostenv.Windows)
	const n = 50000
	for i := 0; i < n; i++ {
		f := ft.fateFor("site"+string(rune(i))+strings.Repeat("x", i%5)+".example", "", false)
		counts[f]++
	}
	failRate := float64(n-counts[FateOK]) / n
	if failRate < 0.08 || failRate > 0.13 {
		t.Errorf("top-2020 Windows failure rate = %.3f, want ~0.103 (Table 1)", failRate)
	}
	nxShare := float64(counts[FateNXDomain]) / float64(n-counts[FateOK])
	if nxShare < 0.83 || nxShare > 0.95 {
		t.Errorf("NXDOMAIN share of failures = %.3f, want ~0.895", nxShare)
	}
}

func TestFateGroundTruthAlwaysLoads(t *testing.T) {
	for _, os := range hostenv.AllOS {
		if f := newFateTable(testSeed, groundtruth.CrawlTop2020, os).fateFor("ebay.com", "", true); f != FateOK {
			t.Errorf("%v: ground-truth site got fate %v", os, f)
		}
	}
}

func TestFateDNSNestsAcrossOSes(t *testing.T) {
	// A domain NXDOMAIN on the OS with the lowest DNS-failure rate must
	// be NXDOMAIN on every OS with a higher rate (the draws share a
	// domain-level hash).
	macFT := newFateTable(testSeed, groundtruth.CrawlTop2020, hostenv.MacOSX)
	winFT := newFateTable(testSeed, groundtruth.CrawlTop2020, hostenv.Windows)
	for i := 0; i < 5000; i++ {
		d := strings.Repeat("q", i%7+1) + string(rune('a'+i%26)) + ".example"
		mac := macFT.fateFor(d, "", false)
		win := winFT.fateFor(d, "", false)
		// 2020 NX rates: Windows 9179/100000 > Mac 9001/100000.
		if mac == FateNXDomain && win != FateNXDomain {
			t.Fatalf("%s: NXDOMAIN on Mac but not on Windows (higher rate)", d)
		}
	}
}

func TestLocalhostStepsThreatMetrix(t *testing.T) {
	var row groundtruth.LocalhostRow
	for _, r := range groundtruth.Top2020Localhost() {
		if r.Domain == "ebay.com" {
			row = r
			break
		}
	}
	steps := localhostSteps(testSeed, row, hostenv.Windows)
	if len(steps) != 14 {
		t.Fatalf("ThreatMetrix issues 14 WSS probes, got %d", len(steps))
	}
	for _, s := range steps {
		if !strings.HasPrefix(s.URL, "wss://localhost:") {
			t.Errorf("probe URL %q not WSS to localhost", s.URL)
		}
		if s.Initiator != "blob:threatmetrix" {
			t.Errorf("initiator = %q", s.Initiator)
		}
		if s.At < 9800*time.Millisecond || s.At > 17*time.Second {
			t.Errorf("probe at %v outside the fraud-detection window", s.At)
		}
	}
	// Windows-only behavior.
	if got := localhostSteps(testSeed, row, hostenv.Linux); got != nil {
		t.Errorf("ThreatMetrix must not run on Linux, got %d steps", len(got))
	}
}

func TestLocalhostStepsDiscordSubset(t *testing.T) {
	var row groundtruth.LocalhostRow
	for _, r := range groundtruth.Top2020Localhost() {
		if r.Domain == "cponline.pw" {
			row = r
			break
		}
	}
	steps := localhostSteps(testSeed, row, hostenv.MacOSX)
	if len(steps) != discordPortWindow {
		t.Fatalf("Discord probe tries %d ports per visit, got %d", discordPortWindow, len(steps))
	}
	for _, s := range steps {
		if !strings.Contains(s.URL, "/?v=1") {
			t.Errorf("Discord probe path wrong: %q", s.URL)
		}
	}
}

func TestLanStepsShape(t *testing.T) {
	var row groundtruth.LANRow
	for _, r := range groundtruth.Top2020LAN() {
		if r.Domain == "gsis.gr" {
			row = r
			break
		}
	}
	steps := lanSteps(testSeed, row, hostenv.Linux)
	if len(steps) != 1 {
		t.Fatalf("LAN rows issue one request, got %d", len(steps))
	}
	if !strings.HasPrefix(steps[0].URL, "http://10.193.31.212/") {
		t.Errorf("LAN URL = %q", steps[0].URL)
	}
	if strings.Contains(steps[0].URL, "*") {
		t.Errorf("wildcard not expanded: %q", steps[0].URL)
	}
}

func TestExpandPathDeterministic(t *testing.T) {
	a := expandPath(testSeed, "x.example", "/wp-content/uploads/*.jpg")
	b := expandPath(testSeed, "x.example", "/wp-content/uploads/*.jpg")
	if a != b {
		t.Errorf("expansion not deterministic: %q vs %q", a, b)
	}
	if strings.Contains(a, "*") {
		t.Errorf("wildcard survived: %q", a)
	}
	if expandPath(testSeed, "x.example", "/plain") != "/plain" {
		t.Error("plain path modified")
	}
}

func TestBuildSmallWorld(t *testing.T) {
	w, err := Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.01, testSeed) // 1000 domains
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Targets) != 1000 {
		t.Fatalf("targets = %d", len(w.Targets))
	}
	// ebay.com (rank 104) must resolve and serve a page with TM steps.
	addrs, nerr := w.Net.Resolver.Resolve("ebay.com")
	if nerr.IsFailure() {
		t.Fatal("ebay.com must resolve")
	}
	ep := w.Net.Locate(addrs[0], 443)
	if ep.Outcome != simnet.DialAccepted || ep.Service == nil {
		t.Fatal("ebay.com must accept on 443")
	}
	if ep.TLS == nil || !ep.TLS.ValidFor("ebay.com") {
		t.Error("ebay.com must present a valid certificate")
	}
	resp := ep.Service.Serve(&simnet.Request{Scheme: simnet.SchemeHTTPS, Host: "ebay.com", Port: 443, Path: "/"})
	page, ok := resp.Document.(*webdoc.Page)
	if !ok {
		t.Fatal("landing response carries no document")
	}
	tm := 0
	for _, s := range page.Steps {
		if strings.HasPrefix(s.URL, "wss://localhost:") {
			tm++
		}
	}
	if tm != 14 {
		t.Errorf("ebay.com page has %d TM probes on Windows, want 14", tm)
	}
}

func TestBuildPerOSDifferences(t *testing.T) {
	win, err := Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.01, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := Build(groundtruth.CrawlTop2020, hostenv.Linux, 0.01, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	pageOf := func(w *World, domain string) *webdoc.Page {
		addrs, nerr := w.Net.Resolver.Resolve(domain)
		if nerr.IsFailure() {
			t.Fatalf("%s must resolve", domain)
		}
		ep := w.Net.Locate(addrs[0], 443)
		if ep.Service == nil {
			t.Fatalf("%s has no service", domain)
		}
		resp := ep.Service.Serve(&simnet.Request{Scheme: simnet.SchemeHTTPS, Host: domain, Port: 443, Path: "/"})
		return resp.Document.(*webdoc.Page)
	}
	countLocal := func(p *webdoc.Page) int {
		n := 0
		for _, s := range p.Steps {
			if strings.Contains(s.URL, "localhost") || strings.Contains(s.URL, "127.0.0.1") {
				n++
			}
		}
		return n
	}
	if n := countLocal(pageOf(win, "ebay.com")); n == 0 {
		t.Error("ebay.com must scan localhost on Windows")
	}
	if n := countLocal(pageOf(lin, "ebay.com")); n != 0 {
		t.Errorf("ebay.com must not scan localhost on Linux, got %d steps", n)
	}
}

func TestBuild2021RejectsMac(t *testing.T) {
	if _, err := Build(groundtruth.CrawlTop2021, hostenv.MacOSX, 0.01, testSeed); err == nil {
		t.Error("2021 crawl on Mac must be rejected")
	}
}

func TestBuildMaliciousScaled(t *testing.T) {
	w, err := Build(groundtruth.CrawlMalicious, hostenv.Linux, 0.002, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Targets) < 250 {
		t.Fatalf("scaled malicious population too small: %d", len(w.Targets))
	}
	// Ground-truth phishing cloners must be present and categorized.
	found := false
	for _, tg := range w.Targets {
		if tg.Domain == "customer-ebay.com" {
			found = true
			if tg.Category != "phishing" {
				t.Errorf("customer-ebay.com category = %q", tg.Category)
			}
		}
	}
	if !found {
		t.Error("customer-ebay.com missing from scaled malicious world")
	}
}

func TestRedirectSitesServeRedirect(t *testing.T) {
	w, err := Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.55, testSeed) // romadecade.org is rank 51142
	if err != nil {
		t.Fatal(err)
	}
	addrs, nerr := w.Net.Resolver.Resolve("romadecade.org")
	if nerr.IsFailure() {
		t.Fatal("romadecade.org must resolve")
	}
	var resp *simnet.Response
	for _, port := range []uint16{80, 443} {
		if ep := w.Net.Locate(addrs[0], port); ep.Service != nil {
			resp = ep.Service.Serve(&simnet.Request{Scheme: simnet.SchemeHTTP, Host: "romadecade.org", Port: port, Path: "/"})
			break
		}
	}
	if resp == nil || resp.Status != 302 || resp.Location != "http://127.0.0.1/" {
		t.Fatalf("romadecade.org must 302 to http://127.0.0.1/, got %+v", resp)
	}
}

func TestCDNsBound(t *testing.T) {
	w, err := Build(groundtruth.CrawlTop2020, hostenv.Linux, 0.005, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cdnCount; i++ {
		addrs, nerr := w.Net.Resolver.Resolve(cdnHosts[i])
		if nerr.IsFailure() {
			t.Fatalf("%s unresolvable", cdnHosts[i])
		}
		if ep := w.Net.Locate(addrs[0], 443); ep.Outcome != simnet.DialAccepted {
			t.Errorf("%s not accepting", cdnHosts[i])
		}
	}
	if !w.Net.Ping(netip.MustParseAddr("8.8.8.8")) {
		t.Error("connectivity check target unreachable")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, _ := Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.003, testSeed)
	b, _ := Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.003, testSeed)
	if len(a.Targets) != len(b.Targets) {
		t.Fatal("target counts differ")
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatalf("target %d differs: %+v vs %+v", i, a.Targets[i], b.Targets[i])
		}
	}
}

func TestThreatMetrixScriptChain(t *testing.T) {
	w, err := Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.01, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	addrs, nerr := w.Net.Resolver.Resolve("ebay.com")
	if nerr.IsFailure() {
		t.Fatal("ebay.com must resolve")
	}
	resp := w.Net.Locate(addrs[0], 443).Service.Serve(&simnet.Request{
		Scheme: simnet.SchemeHTTPS, Host: "ebay.com", Port: 443, Path: "/",
	})
	page := resp.Document.(*webdoc.Page)

	var scriptStep *webdoc.Step
	probeInitiators := map[string]bool{}
	var firstProbe time.Duration
	for i := range page.Steps {
		s := &page.Steps[i]
		if strings.Contains(s.URL, "ebay-us.com") {
			scriptStep = s
		}
		if strings.HasPrefix(s.URL, "wss://localhost:") {
			probeInitiators[s.Initiator] = true
			if firstProbe == 0 || s.At < firstProbe {
				firstProbe = s.At
			}
		}
	}
	if scriptStep == nil {
		t.Fatal("profiling script fetch from ebay-us.com missing")
	}
	if scriptStep.At >= firstProbe {
		t.Errorf("script loads at %v, after the first probe at %v", scriptStep.At, firstProbe)
	}
	if len(probeInitiators) != 1 || !probeInitiators["blob:threatmetrix:ebay-us.com"] {
		t.Errorf("probe initiators = %v", probeInitiators)
	}
	// The script host resolves, serves JS, and is WHOIS-registered to
	// ThreatMetrix Inc.
	tmAddrs, nerr := w.Net.Resolver.Resolve("ebay-us.com")
	if nerr.IsFailure() {
		t.Fatal("ebay-us.com must resolve")
	}
	if ep := w.Net.Locate(tmAddrs[0], 443); ep.Outcome != simnet.DialAccepted {
		t.Error("ebay-us.com must accept HTTPS")
	}
	rec, ok := w.Whois.Lookup("ebay-us.com")
	if !ok || rec.Registrant != "ThreatMetrix Inc." {
		t.Errorf("whois(ebay-us.com) = %+v, %v", rec, ok)
	}
	if rec2, ok := w.Whois.LookupIP(tmAddrs[0]); !ok || rec2.Registrant != rec.Registrant {
		t.Error("IP-based whois must agree with the domain record")
	}
}

func TestLoginPageScansForLoginOnlyDeployer(t *testing.T) {
	w, err := Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.01, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	addrs, nerr := w.Net.Resolver.Resolve("walmart.com")
	if nerr.IsFailure() {
		t.Fatal("walmart.com (rank 131) must resolve")
	}
	svc := w.Net.Locate(addrs[0], 443).Service
	if svc == nil {
		// The extension site may be assigned HTTP by the scheme hash.
		svc = w.Net.Locate(addrs[0], 80).Service
	}
	if svc == nil {
		t.Fatal("walmart.com has no service")
	}
	landing := svc.Serve(&simnet.Request{Scheme: simnet.SchemeHTTPS, Host: "walmart.com", Port: 443, Path: "/"})
	login := svc.Serve(&simnet.Request{Scheme: simnet.SchemeHTTPS, Host: "walmart.com", Port: 443, Path: LoginPath})
	countTM := func(resp *simnet.Response) int {
		page, ok := resp.Document.(*webdoc.Page)
		if !ok {
			return -1
		}
		n := 0
		for _, s := range page.Steps {
			if strings.HasPrefix(s.URL, "wss://localhost:") {
				n++
			}
		}
		return n
	}
	if n := countTM(landing); n != 0 {
		t.Errorf("landing page has %d TM probes, want 0", n)
	}
	if n := countTM(login); n != 14 {
		t.Errorf("login page has %d TM probes, want 14", n)
	}
	// Unknown paths 404 without a document.
	if resp := svc.Serve(&simnet.Request{Scheme: simnet.SchemeHTTPS, Host: "walmart.com", Port: 443, Path: "/nonexistent"}); resp.Status != 404 || resp.Document != nil {
		t.Errorf("unknown path = %+v", resp)
	}
}

func TestRenderHTMLRoundTripShape(t *testing.T) {
	page := &webdoc.Page{
		URL:      "https://x.test/",
		BodySize: 3000,
		Steps: []webdoc.Step{
			{At: 100 * time.Millisecond, URL: "https://cdn0.webstatic.example/a.js", Initiator: "parser"},
			{At: 200 * time.Millisecond, URL: "https://cdn1.webstatic.example/b.css", Initiator: "parser"},
			{At: 300 * time.Millisecond, URL: "http://10.10.34.35/", Initiator: "iframe"},
			{At: 2 * time.Second, URL: "wss://localhost:5939/", Initiator: "blob:threatmetrix:regstat.x.test"},
		},
	}
	raw := RenderHTML(page)
	html := string(raw)
	for _, want := range []string{
		`<script src="https://cdn0.webstatic.example/a.js">`,
		`<link rel="stylesheet" href="https://cdn1.webstatic.example/b.css">`,
		`<iframe src="http://10.10.34.35/">`,
		"after 2000ms",
		"ws wss://localhost:5939/ as blob:threatmetrix:regstat.x.test",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("rendered HTML missing %q", want)
		}
	}
	if len(raw) < page.BodySize {
		t.Errorf("rendered page smaller than nominal body size: %d < %d", len(raw), page.BodySize)
	}
}

func TestParallelBuildMatchesSequential(t *testing.T) {
	// World construction must not depend on the bind pool size: every
	// per-site draw derives from (seed, domain, index), vendor-host
	// addresses are hashes of the host name, and registration targets
	// are lock-protected. Run with -race in CI.
	build := func(workers int) *World {
		t.Helper()
		defer func(old int) { bindWorkers = old }(bindWorkers)
		bindWorkers = workers
		w, err := Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.01, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	seq, par := build(1), build(8)
	if len(seq.Targets) != len(par.Targets) {
		t.Fatalf("target counts differ: %d vs %d", len(seq.Targets), len(par.Targets))
	}
	for i := range seq.Targets {
		if seq.Targets[i] != par.Targets[i] {
			t.Fatalf("target %d differs: %+v vs %+v", i, seq.Targets[i], par.Targets[i])
		}
	}
	if a, b := seq.Net.Resolver.Len(), par.Net.Resolver.Len(); a != b {
		t.Errorf("resolver sizes differ: %d vs %d", a, b)
	}
	if a, b := seq.Net.NumHosts(), par.Net.NumHosts(); a != b {
		t.Errorf("host counts differ: %d vs %d", a, b)
	}
	// Vendor hosts resolve to the same hash-derived address either way.
	for _, host := range []string{"ebay-us.com", "regstat.betfair.com"} {
		a, errA := seq.Net.Resolver.Resolve(host)
		b, errB := par.Net.Resolver.Resolve(host)
		if errA != errB || len(a) != len(b) || (len(a) > 0 && a[0] != b[0]) {
			t.Errorf("%s resolves differently: %v/%v vs %v/%v", host, a, errA, b, errB)
		}
	}
}

func TestSpecCacheSharedAcrossOSes(t *testing.T) {
	// The crawl-level spec phase is OS-independent and must be computed
	// once: Build for two OSes at the same (crawl, scale) shares the
	// cached specs.
	key := specKey{groundtruth.CrawlTop2020, 0.004}
	specCache.Delete(key)
	if _, err := Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.004, testSeed); err != nil {
		t.Fatal(err)
	}
	v, ok := specCache.Load(key)
	if !ok {
		t.Fatal("Build did not populate the spec cache")
	}
	if _, err := Build(groundtruth.CrawlTop2020, hostenv.Linux, 0.004, testSeed+1); err != nil {
		t.Fatal(err)
	}
	v2, ok := specCache.Load(key)
	if !ok {
		t.Fatal("spec cache entry evicted")
	}
	if &v.([]siteSpec)[0] != &v2.([]siteSpec)[0] {
		t.Error("second Build rebuilt the specs instead of sharing the cache")
	}
}
