package localnet

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/netlog"
)

func TestClassifyHost(t *testing.T) {
	cases := map[string]Dest{
		"localhost":       DestLocalhost,
		"app.localhost":   DestLocalhost,
		"127.0.0.1":       DestLocalhost,
		"127.255.255.254": DestLocalhost,
		"::1":             DestLocalhost,
		"10.0.0.200":      DestLAN,
		"10.193.31.212":   DestLAN,
		"172.16.205.110":  DestLAN,
		"172.31.255.1":    DestLAN,
		"192.168.64.160":  DestLAN,
		"fd00::1":         DestLAN,
		"fe80::1":         DestLAN,
		"169.254.1.1":     DestLAN, // link-local is LAN in both families
		"0.0.0.0":         DestLocalhost,
		"172.32.0.1":      DestPublic, // just past 172.16/12
		"192.169.0.1":     DestPublic,
		"11.0.0.1":        DestPublic,
		"8.8.8.8":         DestPublic,
		"ebay.com":        DestPublic,
		"2001:db8::1":     DestPublic,
		"localhost.com":   DestPublic, // suffix must be a label boundary
	}
	for host, want := range cases {
		if got := ClassifyHost(host); got != want {
			t.Errorf("ClassifyHost(%q) = %v, want %v", host, got, want)
		}
	}
}

func TestDestString(t *testing.T) {
	if DestLocalhost.String() != "localhost" || DestLAN.String() != "lan" || DestPublic.String() != "public" {
		t.Error("Dest labels wrong")
	}
}

// buildLog assembles a small visit log.
func buildLog() *netlog.Log {
	r := netlog.NewRecorder()

	// Public landing page — not a finding.
	landing := r.NewSource(netlog.SourceURLRequest)
	r.Begin(0, netlog.TypeRequestAlive, landing, netlog.Params{}.WithURL("https://ebay.com/").WithInitiator("navigation"))
	r.End(800*time.Millisecond, netlog.TypeRequestAlive, landing, netlog.Params{}.WithStatusCode(200))

	// ThreatMetrix WSS probe — a localhost finding.
	tm := r.NewSource(netlog.SourceWebSocket)
	r.Begin(10*time.Second, netlog.TypeRequestAlive, tm, netlog.Params{}.WithURL("wss://localhost:5939/").WithInitiator("blob:threatmetrix").WithSOPExempt(true))
	r.Point(10*time.Second+2*time.Millisecond, netlog.TypeURLRequestError, tm, netlog.Params{}.WithNetError("ERR_CONNECTION_REFUSED"))

	// LAN image fetch — a LAN finding.
	lan := r.NewSource(netlog.SourceURLRequest)
	r.Begin(3*time.Second, netlog.TypeRequestAlive, lan, netlog.Params{}.WithURL("http://10.193.31.212/system/x.png").WithInitiator("img"))
	r.Point(3*time.Second+9*time.Second, netlog.TypeSocketTimeout, lan, netlog.Params{})

	// Redirect to loopback — a via-redirect finding on a public flow.
	red := r.NewSource(netlog.SourceURLRequest)
	r.Begin(1*time.Second, netlog.TypeRequestAlive, red, netlog.Params{}.WithURL("http://romadecade.org/").WithInitiator("navigation"))
	r.Point(1200*time.Millisecond, netlog.TypeURLRequestRedirect, red, netlog.Params{}.WithLocation("http://127.0.0.1/"))

	// Browser-internal loopback ping — must be filtered out.
	bg := r.NewSource(netlog.SourceBrowser)
	r.Begin(500*time.Millisecond, netlog.TypeBrowserBackgroundRequest, bg, netlog.Params{}.WithURL("http://127.0.0.1:49152/crashpad/ping"))
	r.End(520*time.Millisecond, netlog.TypeBrowserBackgroundRequest, bg, netlog.Params{})

	return r.Log()
}

func TestFromLogExtraction(t *testing.T) {
	findings := FromLog(buildLog())
	if len(findings) != 3 {
		t.Fatalf("findings = %d, want 3 (wss probe, LAN image, redirect target)", len(findings))
	}
	byURL := map[string]Finding{}
	for _, f := range findings {
		byURL[f.URL] = f
	}

	tm, ok := byURL["wss://localhost:5939/"]
	if !ok {
		t.Fatal("localhost WSS probe missing")
	}
	if tm.Dest != DestLocalhost || !tm.SOPExempt || tm.Port != 5939 || tm.NetError != "ERR_CONNECTION_REFUSED" {
		t.Errorf("WSS finding wrong: %+v", tm)
	}
	if tm.Initiator != "blob:threatmetrix" || tm.At != 10*time.Second {
		t.Errorf("WSS provenance wrong: %+v", tm)
	}

	lan, ok := byURL["http://10.193.31.212/system/x.png"]
	if !ok {
		t.Fatal("LAN finding missing")
	}
	if lan.Dest != DestLAN || lan.Port != 80 || lan.SOPExempt {
		t.Errorf("LAN finding wrong: %+v", lan)
	}

	red, ok := byURL["http://127.0.0.1/"]
	if !ok {
		t.Fatal("redirect-target finding missing")
	}
	if !red.ViaRedirect || red.Dest != DestLocalhost {
		t.Errorf("redirect finding wrong: %+v", red)
	}
}

func TestFromLogFiltersBrowserTraffic(t *testing.T) {
	for _, f := range FromLog(buildLog()) {
		if f.URL == "http://127.0.0.1:49152/crashpad/ping" {
			t.Fatal("browser-internal loopback traffic must be filtered by source")
		}
	}
}

func TestFromLogEmptyAndPublicOnly(t *testing.T) {
	if got := FromLog(&netlog.Log{}); len(got) != 0 {
		t.Errorf("empty log produced %d findings", len(got))
	}
	r := netlog.NewRecorder()
	src := r.NewSource(netlog.SourceURLRequest)
	r.Begin(0, netlog.TypeRequestAlive, src, netlog.Params{}.WithURL("https://cdn0.webstatic.example/a.js"))
	if got := FromLog(r.Log()); len(got) != 0 {
		t.Errorf("public-only log produced %d findings", len(got))
	}
}

func TestParseTargetPortDefaults(t *testing.T) {
	cases := []struct {
		url  string
		port uint16
		path string
	}{
		{"http://127.0.0.1/", 80, "/"},
		{"https://192.168.0.1/x", 443, "/x"},
		{"ws://localhost/", 80, "/"},
		{"wss://localhost/", 443, "/"},
		{"http://localhost:8080/a?b=1", 8080, "/a?b=1"},
	}
	for _, c := range cases {
		f, ok := findingFromURL(c.url, &netlog.Flow{}, false)
		if !ok || f.Port != c.port || f.Path != c.path {
			t.Errorf("findingFromURL(%q) = port %d path %q ok=%v", c.url, f.Port, f.Path, ok)
		}
	}
	for _, bad := range []string{"not a url\x7f://", "/relative/only", "http://localhost:99999/"} {
		if f, ok := findingFromURL(bad, &netlog.Flow{}, false); ok {
			t.Errorf("%q accepted as %+v", bad, f)
		}
	}
}

// Property: ClassifyHost over all IPv4 space agrees with the RFC1918,
// link-local, loopback and unspecified-address definitions.
func TestQuickClassifyIPv4(t *testing.T) {
	f := func(a, b, c, d byte) bool {
		host := netipString(a, b, c, d)
		got := ClassifyHost(host)
		isLoop := a == 127 || a|b|c|d == 0
		isPriv := a == 10 || (a == 172 && b >= 16 && b <= 31) || (a == 192 && b == 168) || (a == 169 && b == 254)
		switch {
		case isLoop:
			return got == DestLocalhost
		case isPriv:
			return got == DestLAN
		default:
			return got == DestPublic
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func netipString(a, b, c, d byte) string {
	return itoa(a) + "." + itoa(b) + "." + itoa(c) + "." + itoa(d)
}

func itoa(b byte) string {
	digits := "0123456789"
	if b < 10 {
		return string(digits[b])
	}
	if b < 100 {
		return string(digits[b/10]) + string(digits[b%10])
	}
	return string(digits[b/100]) + string(digits[(b/10)%10]) + string(digits[b%10])
}

func TestFromLogOptsAblations(t *testing.T) {
	log := buildLog()
	// Ignoring redirect targets drops exactly the via-redirect finding.
	noRedirect := FromLogOpts(log, Options{IgnoreRedirectTargets: true})
	if len(noRedirect) != 2 {
		t.Errorf("IgnoreRedirectTargets: %d findings, want 2", len(noRedirect))
	}
	for _, f := range noRedirect {
		if f.ViaRedirect {
			t.Errorf("redirect finding leaked: %+v", f)
		}
	}
	// Keeping browser traffic admits the crashpad ping.
	withBrowser := FromLogOpts(log, Options{KeepBrowserTraffic: true})
	if len(withBrowser) != 4 {
		t.Errorf("KeepBrowserTraffic: %d findings, want 4", len(withBrowser))
	}
}
