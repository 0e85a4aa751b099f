package simnet

import (
	"net/netip"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(3*time.Second, func() { order = append(order, 3) })
	s.At(1*time.Second, func() { order = append(order, 1) })
	s.At(2*time.Second, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v", order)
	}
	if s.Now() != 3*time.Second {
		t.Errorf("clock = %v, want 3s", s.Now())
	}
}

func TestSchedulerTieBreakFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	ran := map[int]bool{}
	s.At(5*time.Second, func() { ran[5] = true })
	s.At(25*time.Second, func() { ran[25] = true })
	s.RunUntil(20 * time.Second)
	if !ran[5] || ran[25] {
		t.Errorf("RunUntil executed wrong events: %v", ran)
	}
	if s.Now() != 20*time.Second {
		t.Errorf("clock = %v, want 20s (deadline)", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var hits []time.Duration
	s.At(time.Second, func() {
		hits = append(hits, s.Now())
		s.After(2*time.Second, func() { hits = append(hits, s.Now()) })
	})
	s.Run()
	if len(hits) != 2 || hits[0] != time.Second || hits[1] != 3*time.Second {
		t.Errorf("hits = %v", hits)
	}
}

func TestSchedulerPastClamped(t *testing.T) {
	s := NewScheduler()
	var at time.Duration = -1
	s.At(2*time.Second, func() {
		s.At(time.Second, func() { at = s.Now() }) // in the past
	})
	s.Run()
	if at != 2*time.Second {
		t.Errorf("past event ran at %v, want clamped to 2s", at)
	}
}

func TestSchedulerReset(t *testing.T) {
	s := NewScheduler()
	s.At(time.Second, func() {})
	s.RunUntil(500 * time.Millisecond)
	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 {
		t.Errorf("Reset left now=%v pending=%d", s.Now(), s.Pending())
	}
}

// Callbacks that schedule at the current instant, or in the past, run
// after everything already queued for that instant, in the order they
// were scheduled: the order is (time, scheduling order).
func TestSchedulerSameInstantOrder(t *testing.T) {
	s := NewScheduler()
	var order []string
	log := func(name string) func() { return func() { order = append(order, name) } }
	s.At(time.Second, func() {
		order = append(order, "a")
		s.At(s.Now(), log("a1"))
		s.After(0, log("a2"))
		s.At(0, log("a3")) // clamped to now
	})
	s.At(time.Second, log("b"))
	s.At(2*time.Second, log("d"))
	s.At(time.Second, log("c"))
	s.Run()
	if got := strings.Join(order, " "); got != "a b c a1 a2 a3 d" {
		t.Errorf("order = %s, want a b c a1 a2 a3 d", got)
	}
}

// The value heap runs any schedule as a stable sort by time would, and
// RunUntil leaves the events past its deadline queued, in order.
func TestSchedulerMatchesStableSort(t *testing.T) {
	f := func(ats []uint8, deadline uint8) bool {
		s := NewScheduler()
		var got []int
		for i, at := range ats {
			s.At(time.Duration(at%32)*time.Millisecond, func() { got = append(got, i) })
		}
		want := make([]int, len(ats))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return ats[want[i]]%32 < ats[want[j]]%32 })
		cut := time.Duration(deadline%40) * time.Millisecond
		s.RunUntil(cut)
		ran := len(got)
		if s.Now() != cut || s.Pending() != len(ats)-ran {
			return false
		}
		for _, i := range got {
			if time.Duration(ats[i]%32)*time.Millisecond > cut {
				return false
			}
		}
		s.Run()
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A Reset scheduler drops what was queued and runs a new schedule from
// time zero, in order.
func TestSchedulerResetReuse(t *testing.T) {
	s := NewScheduler()
	var order []string
	for i := 0; i < 50; i++ {
		s.At(time.Duration(i)*time.Second, func() { order = append(order, "old") })
	}
	s.RunUntil(10 * time.Second)
	s.Reset()
	order = nil
	s.At(2*time.Second, func() { order = append(order, "second") })
	s.At(time.Second, func() { order = append(order, "first") })
	s.At(2*time.Second, func() { order = append(order, "third") })
	s.Run()
	if got := strings.Join(order, " "); got != "first second third" || s.Now() != 2*time.Second {
		t.Errorf("after Reset: order %q at %v", got, s.Now())
	}
}

// Once its queue has grown, a scheduler schedules and runs without
// allocating: the browser reuses one per worker across visits.
func TestSchedulerAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.At(time.Duration(i), fn)
	}
	s.Run()
	if n := testing.AllocsPerRun(100, func() {
		s.Reset()
		for i := 0; i < 64; i++ {
			s.At(time.Duration(64-i), fn)
		}
		s.RunUntil(time.Second)
	}); n != 0 {
		t.Errorf("%v allocs per 64 warm At calls and run, want 0", n)
	}
}

func TestResolverLocalhost(t *testing.T) {
	r := NewResolver()
	addrs, err := r.Resolve("localhost")
	if err.IsFailure() {
		t.Fatalf("localhost failed: %v", err)
	}
	if len(addrs) != 2 || addrs[0] != netip.MustParseAddr("127.0.0.1") || addrs[1] != netip.IPv6Loopback() {
		t.Errorf("localhost = %v", addrs)
	}
}

func TestResolverIPLiteral(t *testing.T) {
	r := NewResolver()
	addrs, err := r.Resolve("10.193.31.212")
	if err.IsFailure() || len(addrs) != 1 || addrs[0] != netip.MustParseAddr("10.193.31.212") {
		t.Errorf("IP literal: %v, %v", addrs, err)
	}
}

func TestResolverNXDomain(t *testing.T) {
	r := NewResolver()
	if _, err := r.Resolve("no-such-host.example"); err != ErrNameNotResolved {
		t.Errorf("err = %v, want ERR_NAME_NOT_RESOLVED", err)
	}
}

func TestResolverAddRemove(t *testing.T) {
	r := NewResolver()
	ip := netip.MustParseAddr("203.0.113.7")
	r.Add("ebay.com", ip)
	addrs, err := r.Resolve("ebay.com")
	if err.IsFailure() || len(addrs) != 1 || addrs[0] != ip {
		t.Fatalf("resolve after Add: %v, %v", addrs, err)
	}
	// The answer is the zone's record, capped: appending to it must
	// not reach the zone, even after the record grows.
	r.Add("ebay.com", netip.MustParseAddr("203.0.113.8"))
	addrs, _ = r.Resolve("ebay.com")
	_ = append(addrs, netip.MustParseAddr("198.51.100.1"))
	if again, _ := r.Resolve("ebay.com"); len(again) != 2 || cap(again) != 2 || again[0] != ip || again[1] != netip.MustParseAddr("203.0.113.8") {
		t.Errorf("Resolve after an append to an answer = %v", again)
	}
	r.Remove("ebay.com")
	if _, err := r.Resolve("ebay.com"); !err.IsFailure() {
		t.Error("Remove did not take effect")
	}
}

// nominalRTT is the convenience the old LatencyModel.RTT provided,
// rebuilt on the Conditions chain.
func nominalRTT(seed uint64, v Vantage, dst netip.Addr) time.Duration {
	c := Nominal(v)
	return c.Path(seed, Flow{Vantage: v.Name, Dst: dst}).RTT
}

func TestLatencyDeterministicAndClassed(t *testing.T) {
	lo := netip.MustParseAddr("127.0.0.1")
	lan := netip.MustParseAddr("192.168.1.8")
	pub := netip.MustParseAddr("203.0.113.9")

	if a, b := nominalRTT(42, VantageCampus, pub), nominalRTT(42, VantageCampus, pub); a != b {
		t.Errorf("RTT not deterministic: %v != %v", a, b)
	}
	rttLo := nominalRTT(42, VantageCampus, lo)
	rttLAN := nominalRTT(42, VantageCampus, lan)
	rttPub := nominalRTT(42, VantageCampus, pub)
	if !(rttLo < rttLAN && rttLAN < rttPub) {
		t.Errorf("latency ordering violated: lo=%v lan=%v pub=%v", rttLo, rttLAN, rttPub)
	}
	if rttLo > time.Millisecond {
		t.Errorf("loopback RTT %v too slow", rttLo)
	}
	if rttPub < VantageCampus.BaseRTT {
		t.Errorf("public RTT %v under base", rttPub)
	}
}

func TestLatencySeedSensitivity(t *testing.T) {
	pub := netip.MustParseAddr("203.0.113.9")
	a := nominalRTT(1, VantageCampus, pub)
	b := nominalRTT(2, VantageCampus, pub)
	if a == b {
		t.Error("different seeds produced identical jitter (possible, but suspicious for this pair)")
	}
}

func TestSchemeProperties(t *testing.T) {
	cases := []struct {
		s       Scheme
		secure  bool
		ws      bool
		defPort uint16
	}{
		{SchemeHTTP, false, false, 80},
		{SchemeHTTPS, true, false, 443},
		{SchemeWS, false, true, 80},
		{SchemeWSS, true, true, 443},
	}
	for _, c := range cases {
		if c.s.Secure() != c.secure || c.s.WebSocket() != c.ws || c.s.DefaultPort() != c.defPort {
			t.Errorf("scheme %q properties wrong", c.s)
		}
	}
}

func TestRequestURL(t *testing.T) {
	r := &Request{Scheme: SchemeWSS, Host: "localhost", Port: 5939, Path: "/"}
	if got := r.URL(); got != "wss://localhost:5939/" {
		t.Errorf("URL = %q", got)
	}
	r2 := &Request{Scheme: SchemeHTTPS, Host: "ebay.com", Port: 443, Path: "/"}
	if got := r2.URL(); got != "https://ebay.com/" {
		t.Errorf("URL = %q (default port must be elided)", got)
	}
	r3 := &Request{Scheme: SchemeHTTP, Host: "a.b", Port: 80, Path: "x"}
	if got := r3.URL(); got != "http://a.b/x" {
		t.Errorf("URL = %q (missing slash must be added)", got)
	}
}

func TestDialOutcomeNetError(t *testing.T) {
	cases := map[DialOutcome]NetError{
		DialAccepted: OK,
		DialRefused:  ErrConnectionRefused,
		DialReset:    ErrConnectionReset,
		DialTimeout:  ErrConnectionTimedOut,
	}
	for d, want := range cases {
		if d.NetError() != want {
			t.Errorf("%v.NetError() = %v, want %v", d, d.NetError(), want)
		}
	}
}

func TestTLSValidFor(t *testing.T) {
	info := &TLSInfo{CommonName: "ebay.com", SubjectAltNames: []string{"*.ebay.com"}}
	cases := map[string]bool{
		"ebay.com":      true,
		"www.ebay.com":  true,
		"a.b.ebay.com":  false, // wildcard is single-label
		"evilebay.com":  false,
		"ebay.com.evil": false,
	}
	for host, want := range cases {
		if got := info.ValidFor(host); got != want {
			t.Errorf("ValidFor(%q) = %v, want %v", host, got, want)
		}
	}
}

func TestNetworkLocate(t *testing.T) {
	n := NewNetwork(7)
	addr := netip.MustParseAddr("203.0.113.5")
	n.BindService(addr, 443, &TLSInfo{CommonName: "x.test"}, ServiceFunc(func(*Request) *Response {
		return &Response{Status: 200}
	}))

	if ep := n.Locate(addr, 443); ep.Outcome != DialAccepted || ep.Service == nil {
		t.Error("bound endpoint not found")
	}
	if ep := n.Locate(addr, 8080); ep.Outcome != DialRefused {
		t.Errorf("known host, unbound port: %v, want refused", ep.Outcome)
	}
	if ep := n.Locate(netip.MustParseAddr("203.0.113.250"), 80); ep.Outcome != DialTimeout {
		t.Errorf("unknown host: %v, want timeout", ep.Outcome)
	}
}

func TestNetworkOnlineGate(t *testing.T) {
	n := NewNetwork(1)
	dns := netip.MustParseAddr("8.8.8.8")
	if !n.Ping(dns) {
		t.Error("fresh network should be online")
	}
	n.SetOnline(false)
	if n.Ping(dns) {
		t.Error("offline network answered ping")
	}
}

// Property: RTT is always within the documented envelope for its class.
func TestQuickLatencyEnvelope(t *testing.T) {
	f := func(a, b, c, d byte) bool {
		ip := netip.AddrFrom4([4]byte{a, b, c, d})
		rtt := nominalRTT(99, VantageCampus, ip)
		switch {
		case ip.IsLoopback():
			return rtt >= 150*time.Microsecond && rtt < 400*time.Microsecond
		case ip.IsPrivate():
			return rtt >= time.Millisecond && rtt < 5*time.Millisecond
		case ip.IsLinkLocalUnicast():
			return rtt >= time.Millisecond && rtt < 3*time.Millisecond
		default:
			return rtt >= VantageCampus.BaseRTT && rtt < VantageCampus.BaseRTT+VantageCampus.Jitter
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
