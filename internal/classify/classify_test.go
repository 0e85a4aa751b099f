package classify

import (
	"fmt"
	"strings"
	"testing"

	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/whois"
)

// reqsFromRow synthesizes the request set a crawl would observe for a
// ground-truth localhost row (all probes, all ports, wildcards
// expanded), the same expansion websim performs.
func reqsFromRow(row groundtruth.LocalhostRow) []store.LocalRequest {
	var out []store.LocalRequest
	for _, probe := range row.Probes {
		path := strings.ReplaceAll(probe.Path, "*", "x1f3a")
		for _, port := range probe.Ports {
			out = append(out, store.LocalRequest{
				Domain: row.Domain,
				URL:    fmt.Sprintf("%s://localhost:%d%s", probe.Scheme, port, path),
				Scheme: probe.Scheme,
				Host:   "localhost",
				Port:   port,
				Path:   path,
				Dest:   "localhost",
				ViaRedirect: row.Class == groundtruth.ClassDevError &&
					(row.Domain == "romadecade.org" || row.Domain == "fincaraiz.com.co"),
			})
		}
	}
	return out
}

func reqsFromLANRow(row groundtruth.LANRow) []store.LocalRequest {
	path := strings.ReplaceAll(row.Path, "*", "x1f3a")
	return []store.LocalRequest{{
		Domain: row.Domain,
		URL:    fmt.Sprintf("%s://%s:%d%s", row.Scheme, row.Addr, row.Port, path),
		Scheme: row.Scheme,
		Host:   row.Addr,
		Port:   row.Port,
		Path:   path,
		Dest:   "lan",
	}}
}

// TestClassifierMatchesGroundTruth is the classifier's acceptance test:
// every per-site row the paper published must classify into the class
// the paper assigned.
func TestClassifierMatchesGroundTruth(t *testing.T) {
	var rows []groundtruth.LocalhostRow
	rows = append(rows, groundtruth.Top2020Localhost()...)
	rows = append(rows, groundtruth.Top2021NewLocalhost()...)
	rows = append(rows, groundtruth.MaliciousLocalhost()...)
	for _, row := range rows {
		got := Site(reqsFromRow(row))
		if got.Class != row.Class {
			t.Errorf("%s: classified %v (%s), paper says %v", row.Domain, got.Class, got.Signature, row.Class)
		}
	}
}

func TestLANClassifierMatchesGroundTruth(t *testing.T) {
	var rows []groundtruth.LANRow
	rows = append(rows, groundtruth.Top2020LAN()...)
	rows = append(rows, groundtruth.Top2021LAN()...)
	rows = append(rows, groundtruth.MaliciousLAN()...)
	for _, row := range rows {
		got := LANSite(reqsFromLANRow(row))
		wantDev := row.DevError
		if (got.Class == groundtruth.ClassDevError) != wantDev {
			t.Errorf("%s: classified %v (%s), paper dev-error=%v", row.Domain, got.Class, got.Signature, wantDev)
		}
	}
}

func TestThreatMetrixSignature(t *testing.T) {
	var tmRow groundtruth.LocalhostRow
	for _, r := range groundtruth.Top2020Localhost() {
		if r.Domain == "ebay.com" {
			tmRow = r
		}
	}
	v := Site(reqsFromRow(tmRow))
	if v.Class != groundtruth.ClassFraudDetection || v.Signature != "threatmetrix" {
		t.Errorf("ebay.com = %+v", v)
	}
	// A partial observation (half the ports) still matches.
	partial := reqsFromRow(tmRow)[:8]
	if v := Site(partial); v.Signature != "threatmetrix" {
		t.Errorf("partial TM scan = %+v", v)
	}
	// A tiny overlap does not.
	if v := Site(reqsFromRow(tmRow)[:2]); v.Signature == "threatmetrix" {
		t.Error("2-port WSS probe should not match ThreatMetrix")
	}
}

func TestBigIPSignature(t *testing.T) {
	var botRow groundtruth.LocalhostRow
	for _, r := range groundtruth.Top2020Localhost() {
		if r.Class == groundtruth.ClassBotDetection {
			botRow = r
			break
		}
	}
	v := Site(reqsFromRow(botRow))
	if v.Class != groundtruth.ClassBotDetection || v.Signature != "bigip-asm-bot-defense" {
		t.Errorf("bot row = %+v", v)
	}
}

func TestDevErrorHeuristics(t *testing.T) {
	cases := []struct {
		path, wantSig string
	}{
		{"/wp-content/uploads/2018/06/img.jpg", "dev-remnant"},
		{"/livereload.js", "dev-remnant"},
		{"/sockjs-node/info?t=123", "dev-remnant"},
		{"/xook.js", "dev-remnant"},
		{"/NonExistentImage48762.gif", "dev-remnant"},
		{"/Silk%20Static/clip.mp4", "local-file-fetch"},
		{"/getversionjpg?hash=abc", "local-service-remnant"},
		{"/record/state", "local-service-remnant"},
		{"/", "absolute-local-url"},
	}
	for _, c := range cases {
		v := Site([]store.LocalRequest{{
			Domain: "x.example", Scheme: "http", Host: "127.0.0.1", Port: 8080,
			Path: c.path, Dest: "localhost",
		}})
		if v.Class != groundtruth.ClassDevError || v.Signature != c.wantSig {
			t.Errorf("path %q = %+v, want dev error via %s", c.path, v, c.wantSig)
		}
	}
}

func TestUnknownHeuristics(t *testing.T) {
	// A bare WS probe to unlisted ports stays unknown.
	v := Site([]store.LocalRequest{
		{Domain: "usnetads.com", Scheme: "ws", Host: "localhost", Port: 2687, Path: "/", Dest: "localhost"},
		{Domain: "usnetads.com", Scheme: "ws", Host: "localhost", Port: 26876, Path: "/", Dest: "localhost"},
	})
	if v.Class != groundtruth.ClassUnknown || v.Signature != "ws-probe" {
		t.Errorf("ws probe = %+v", v)
	}
	// A wide port scan with no known signature is unknown profiling.
	var scan []store.LocalRequest
	for p := uint16(7000); p < 7020; p++ {
		scan = append(scan, store.LocalRequest{Domain: "scan.example", Scheme: "http", Host: "localhost", Port: p, Path: "/", Dest: "localhost"})
	}
	if v := Site(scan); v.Signature != "port-scan" {
		t.Errorf("wide scan = %+v", v)
	}
}

func TestRedirectHeuristic(t *testing.T) {
	v := Site([]store.LocalRequest{{
		Domain: "romadecade.org", Scheme: "http", Host: "127.0.0.1", Port: 80,
		Path: "/", Dest: "localhost", ViaRedirect: true,
	}})
	if v.Class != groundtruth.ClassDevError || v.Signature != "redirect-to-loopback" {
		t.Errorf("redirect = %+v", v)
	}
}

func TestEmptyInput(t *testing.T) {
	if v := Site(nil); v.Signature != "no-traffic" {
		t.Errorf("Site(nil) = %+v", v)
	}
	if v := LANSite(nil); v.Signature != "no-traffic" {
		t.Errorf("LANSite(nil) = %+v", v)
	}
}

func TestByDomainSplitsDests(t *testing.T) {
	reqs := []store.LocalRequest{
		{Domain: "a.example", Scheme: "wss", Host: "localhost", Port: 5939, Path: "/", Dest: "localhost"},
		{Domain: "b.example", Scheme: "http", Host: "10.0.0.5", Port: 80, Path: "/wp-content/x.jpg", Dest: "lan"},
	}
	got := ByDomain(reqs)
	if len(got) != 2 {
		t.Fatalf("ByDomain = %v", got)
	}
	if got["b.example"].Class != groundtruth.ClassDevError {
		t.Errorf("LAN site = %+v", got["b.example"])
	}
}

func TestClassifierStableUnderOrder(t *testing.T) {
	var tmRow groundtruth.LocalhostRow
	for _, r := range groundtruth.Top2020Localhost() {
		if r.Domain == "samsungcard.com" {
			tmRow = r
		}
	}
	reqs := reqsFromRow(tmRow)
	a := Site(reqs)
	// Reverse order.
	rev := make([]store.LocalRequest, len(reqs))
	for i, r := range reqs {
		rev[len(reqs)-1-i] = r
	}
	b := Site(rev)
	if a != b {
		t.Errorf("verdict depends on request order: %+v vs %+v", a, b)
	}
	if a.Class != groundtruth.ClassNativeApp {
		t.Errorf("samsungcard = %+v", a)
	}
}

func TestCorroborateWithWhois(t *testing.T) {
	reg := whois.NewRegistry()
	reg.Add(whois.Record{Domain: "ebay-us.com", Registrant: whois.ThreatMetrixOrg})

	var tmRow groundtruth.LocalhostRow
	for _, r := range groundtruth.Top2020Localhost() {
		if r.Domain == "ebay.com" {
			tmRow = r
		}
	}
	reqs := reqsFromRow(tmRow)
	for i := range reqs {
		reqs[i].Initiator = "blob:threatmetrix:ebay-us.com"
	}
	v := Corroborate(Site(reqs), reqs, reg)
	if v.Corroboration != "whois:ebay-us.com=ThreatMetrix Inc." {
		t.Errorf("corroboration = %q", v.Corroboration)
	}
	// Unregistered host: no corroboration, verdict otherwise unchanged.
	reg2 := whois.NewRegistry()
	v2 := Corroborate(Site(reqs), reqs, reg2)
	if v2.Corroboration != "" || v2.Class != groundtruth.ClassFraudDetection {
		t.Errorf("uncorroborated verdict = %+v", v2)
	}
	// Non-fraud verdicts pass through.
	dev := Site([]store.LocalRequest{{Domain: "x", Scheme: "http", Host: "127.0.0.1", Port: 80, Path: "/wp-content/a.jpg", Dest: "localhost"}})
	if got := Corroborate(dev, nil, reg); got != dev {
		t.Errorf("non-fraud verdict modified: %+v", got)
	}
	// Nil registry is safe.
	if got := Corroborate(v, reqs, nil); got.Corroboration != v.Corroboration {
		t.Error("nil registry mishandled")
	}
}

// The catalogue's port sets are built once: classifying a one-request
// site allocates only the digest of its evidence. A site on port 6880
// matches the catalogue's last entry, so every matcher runs.
func TestSiteAllocs(t *testing.T) {
	reqs := []store.LocalRequest{{Domain: "a.example", Scheme: "wss", Host: "localhost", Port: 6880, Path: "/", Dest: "localhost"}}
	if v := Site(reqs); v.Signature != "local-6880-range" {
		t.Fatalf("verdict %+v", v)
	}
	if n := testing.AllocsPerRun(100, func() { Site(reqs) }); n != 5 {
		t.Errorf("%v allocs per one-request Site, want 5", n)
	}
}
