package hostenv

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"github.com/knockandtalk/knockandtalk/internal/simnet"
)

func TestOSLabels(t *testing.T) {
	cases := []struct {
		os     OS
		str    string
		letter string
	}{
		{Windows, "Windows", "W"},
		{Linux, "Linux", "L"},
		{MacOSX, "Mac", "M"},
	}
	for _, c := range cases {
		if c.os.String() != c.str || c.os.Letter() != c.letter {
			t.Errorf("%v labels wrong: %q %q", c.os, c.os.String(), c.os.Letter())
		}
		back, err := ParseOS(c.str)
		if err != nil || back != c.os {
			t.Errorf("ParseOS(%q) = %v, %v", c.str, back, err)
		}
		back, err = ParseOS(c.letter)
		if err != nil || back != c.os {
			t.Errorf("ParseOS(%q) = %v, %v", c.letter, back, err)
		}
	}
	if _, err := ParseOS("BeOS"); err == nil {
		t.Error("ParseOS accepted unknown OS")
	}
}

func TestUserAgentsDistinguishOSes(t *testing.T) {
	for _, os := range AllOS {
		ua := os.UserAgent()
		if !strings.Contains(ua, "Chrome/84") {
			t.Errorf("%v UA missing Chrome/84: %q", os, ua)
		}
	}
	if !strings.Contains(Windows.UserAgent(), "Windows NT 10.0") {
		t.Error("Windows UA missing platform token")
	}
	if !strings.Contains(Linux.UserAgent(), "Linux x86_64") {
		t.Error("Linux UA missing platform token")
	}
	if !strings.Contains(MacOSX.UserAgent(), "Mac OS X 10_15_6") {
		t.Error("Mac UA missing platform token")
	}
}

func TestProfileLocalhostLocate(t *testing.T) {
	p := NewProfile(Windows, "10", simnet.VantageCampus)
	p.ListenLocalService(6463, simnet.ServiceFunc(func(*simnet.Request) *simnet.Response {
		return &simnet.Response{Status: 200}
	}))
	lo := netip.MustParseAddr("127.0.0.1")

	if ep := p.Locate(lo, 6463); ep.Outcome != simnet.DialAccepted {
		t.Errorf("bound local port: %v", ep.Outcome)
	}
	// Closed localhost ports refuse immediately — the timing side channel
	// BIG-IP's bot defense relies on.
	if ep := p.Locate(lo, 4444); ep.Outcome != simnet.DialRefused {
		t.Errorf("closed local port: %v, want refused", ep.Outcome)
	}
}

func TestProfileLANLocate(t *testing.T) {
	p := DefaultProfile(Linux)
	gw := netip.MustParseAddr("192.168.1.1")
	if ep := p.Locate(gw, 80); ep.Outcome != simnet.DialAccepted {
		t.Errorf("gateway HTTP: %v", ep.Outcome)
	}
	if ep := p.Locate(gw, 8080); ep.Outcome != simnet.DialRefused {
		t.Errorf("gateway closed port: %v, want refused", ep.Outcome)
	}
	// Absent devices time out — nothing answers ARP.
	if ep := p.Locate(netip.MustParseAddr("10.193.31.212"), 80); ep.Outcome != simnet.DialTimeout {
		t.Errorf("absent LAN device: %v, want timeout", ep.Outcome)
	}
}

func TestDefaultProfiles(t *testing.T) {
	w := DefaultProfile(Windows)
	if w.Vantage != simnet.VantageCampus {
		t.Error("Windows VMs crawl from the campus vantage")
	}
	if ep := w.Locate(netip.MustParseAddr("127.0.0.1"), 3389); ep.Outcome != simnet.DialAccepted {
		t.Error("Windows profile should accept on 3389 (RDP)")
	}
	m := DefaultProfile(MacOSX)
	if m.Vantage != simnet.VantageResidential {
		t.Error("Mac crawls from the residential vantage")
	}
	l := DefaultProfile(Linux)
	if ep := l.Locate(netip.MustParseAddr("127.0.0.1"), 3389); ep.Outcome != simnet.DialRefused {
		t.Error("Linux profile must not expose RDP")
	}
}

// TestIsLocalDestination pins which addresses the machine routes locally:
// every address space but the public one.
func TestIsLocalDestination(t *testing.T) {
	cases := map[string]bool{
		"127.0.0.1":      true,
		"127.8.8.8":      true,
		"::1":            true,
		"10.0.0.200":     true,
		"172.16.205.110": true,
		"192.168.64.160": true,
		"169.254.4.4":    true,
		"0.0.0.0":        true,
		"fd00::1":        true,
		"8.8.8.8":        false,
		"203.0.113.1":    false,
		"172.32.0.1":     false, // just past 172.16/12
	}
	for s, want := range cases {
		if got := simnet.AddrSpace(netip.MustParseAddr(s)) != simnet.SpacePublic; got != want {
			t.Errorf("local(%s) = %v, want %v", s, got, want)
		}
	}
}

// Property: Locate never returns an accepting endpoint without a service
// for loopback, and absent LAN hosts always time out.
func TestQuickLocateConsistency(t *testing.T) {
	p := DefaultProfile(Windows)
	f := func(port uint16, b byte) bool {
		lo := netip.MustParseAddr("127.0.0.1")
		ep := p.Locate(lo, port)
		if ep.Outcome == simnet.DialAccepted && ep.Service == nil {
			return false
		}
		absent := netip.AddrFrom4([4]byte{10, 99, b, 7})
		return p.Locate(absent, port).Outcome == simnet.DialTimeout
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
