package simnet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"
)

// TestNominalMatchesLegacyFormula pins the nominal chain to the old
// LatencyModel's arithmetic: class base plus the byte-compatible
// per-destination jitter hash, and untouched package defaults for
// everything else. Breaking this breaks golden byte-parity.
func TestNominalMatchesLegacyFormula(t *testing.T) {
	c := Nominal(VantageCampus)
	cases := []struct {
		dst        netip.Addr
		base, jmax time.Duration
	}{
		{netip.MustParseAddr("127.0.0.1"), 150 * time.Microsecond, 250 * time.Microsecond},
		{netip.MustParseAddr("192.168.1.20"), time.Millisecond, 4 * time.Millisecond},
		{netip.MustParseAddr("169.254.3.3"), time.Millisecond, 2 * time.Millisecond},
		{netip.MustParseAddr("203.0.113.50"), VantageCampus.BaseRTT, VantageCampus.Jitter},
	}
	for _, tc := range cases {
		p := c.Path(99, Flow{Vantage: c.FlowVantage, Dst: tc.dst, Port: 443})
		want := tc.base + flowJitter(99, VantageCampus.Name, tc.dst, tc.jmax)
		if p.RTT != want {
			t.Errorf("%v: RTT = %v, want %v", tc.dst, p.RTT, want)
		}
		if p.ConnectTimeout != ConnectTimeout || p.DNSResolve != ResolutionDelay ||
			p.DNSFailure != FailureDelay || p.Drop || p.DNSTimeout || p.BytesPerSec != 0 {
			t.Errorf("%v: nominal path carries impairment: %+v", tc.dst, p)
		}
	}
	if c.Impaired() {
		t.Error("nominal chain reports Impaired")
	}
}

// TestStageScopeAndOrder checks scope gating and chain semantics: a
// public-scoped loss stage never touches loopback, the tightest
// bandwidth cap wins, and the connect-timeout policy overrides the
// package default.
func TestStageScopeAndOrder(t *testing.T) {
	c := &Conditions{
		Name: "test", FlowVantage: "test",
		Stages: []Stage{
			Loss{Rate: 1, Scope: ScopePublic},
			Bandwidth{BytesPerSec: 500_000, Scope: ScopeAll},
			Bandwidth{BytesPerSec: 100_000, Scope: ScopeAll},
			Bandwidth{BytesPerSec: 900_000, Scope: ScopeAll},
			ConnectTimeoutPolicy{Timeout: 2 * time.Second},
		},
	}
	pub := c.Path(1, Flow{Vantage: "test", Dst: netip.MustParseAddr("203.0.113.1"), Port: 80})
	if !pub.Drop {
		t.Error("public flow survived a rate-1 loss stage")
	}
	loop := c.Path(1, Flow{Vantage: "test", Dst: netip.MustParseAddr("127.0.0.1"), Port: 80})
	if loop.Drop {
		t.Error("loopback flow dropped by a public-scoped loss stage")
	}
	if pub.BytesPerSec != 100_000 {
		t.Errorf("BytesPerSec = %d, want tightest cap 100000", pub.BytesPerSec)
	}
	if pub.ConnectTimeout != 2*time.Second {
		t.Errorf("ConnectTimeout = %v, want policy override 2s", pub.ConnectTimeout)
	}
	if !c.Impaired() {
		t.Error("impaired chain reports nominal")
	}
}

// TestLossDeterministicAndRateBounded: the loss draw is a pure function
// of (seed, flow) — identical across calls, different across seeds —
// and the empirical drop rate tracks the configured rate.
func TestLossDeterministicAndRateBounded(t *testing.T) {
	c, err := ProfileByName("satellite")
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	drops := 0
	for i := 0; i < n; i++ {
		dst := netip.AddrFrom4([4]byte{203, 0, byte(i >> 8), byte(i)})
		f := Flow{Vantage: c.FlowVantage, Dst: dst, Port: uint16(8000 + i%100)}
		a := c.Path(42, f)
		b := c.Path(42, f)
		if a != b {
			t.Fatalf("flow %d: non-deterministic path: %+v vs %+v", i, a, b)
		}
		if a.Drop {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.05 || rate > 0.14 {
		t.Errorf("empirical drop rate %.3f far from configured 0.09", rate)
	}
	diff := 0
	for i := 0; i < n; i++ {
		dst := netip.AddrFrom4([4]byte{203, 0, byte(i >> 8), byte(i)})
		f := Flow{Vantage: c.FlowVantage, Dst: dst, Port: uint16(8000 + i%100)}
		if c.Path(42, f).Drop != c.Path(43, f).Drop {
			diff++
		}
	}
	if diff == 0 {
		t.Error("changing the seed changed no loss outcomes")
	}
}

// TestDNSTimeoutKeyedOnHost: resolver timeouts are drawn per host name —
// stable across repeated lookups and across destination details, with
// the empirical rate near the configured one.
func TestDNSTimeoutKeyedOnHost(t *testing.T) {
	c, err := ProfileByName("satellite")
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	timeouts := 0
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("site-%d.example", i)
		f := Flow{Vantage: c.FlowVantage, Host: host}
		a := c.Path(7, f)
		if a.DNSTimeout != c.Path(7, f).DNSTimeout {
			t.Fatalf("host %s: non-deterministic DNS timeout", host)
		}
		if a.DNSTimeout {
			timeouts++
			if a.DNSTimeoutAfter != 6*time.Second {
				t.Errorf("DNSTimeoutAfter = %v, want profile's 6s", a.DNSTimeoutAfter)
			}
		}
	}
	rate := float64(timeouts) / n
	if rate < 0.025 || rate > 0.08 {
		t.Errorf("empirical DNS-timeout rate %.3f far from configured 0.05", rate)
	}
	// Lookups with no host (IP-literal navigation) never time out.
	if c.Path(7, Flow{Vantage: c.FlowVantage, Dst: netip.MustParseAddr("203.0.113.9")}).DNSTimeout {
		t.Error("hostless flow drew a DNS timeout")
	}
}

// TestProfileRegistry walks every named profile through ProfileByName
// and checks the nominal/impaired split.
func TestProfileRegistry(t *testing.T) {
	for _, name := range []string{"", "nominal"} {
		c, err := ProfileByName(name)
		if err != nil || c != nil {
			t.Errorf("ProfileByName(%q) = %v, %v; want nil, nil", name, c, err)
		}
	}
	impaired := map[string]bool{
		"nominal-campus": false, "nominal-residential": false,
		"lossy-wifi": true, "residential-congested": true, "mobile-3g": true, "satellite": true,
	}
	for _, name := range ProfileNames() {
		if name == "nominal" {
			continue
		}
		c, err := ProfileByName(name)
		if err != nil || c == nil {
			t.Fatalf("ProfileByName(%q): %v, %v", name, c, err)
		}
		if c.Name != name {
			t.Errorf("profile %q carries Name %q", name, c.Name)
		}
		if got := c.Impaired(); got != impaired[name] {
			t.Errorf("profile %q: Impaired = %v, want %v", name, got, impaired[name])
		}
	}
	if _, err := ProfileByName("adsl-1999"); err == nil {
		t.Error("unknown profile name accepted")
	}
}

// TestTransferDelayShaping: an unshaped path keeps the legacy body-read
// formula (capped at 3s); a shaped one adds serialization time on top.
func TestTransferDelayShaping(t *testing.T) {
	p := Path{RTT: 40 * time.Millisecond}
	legacy := p.RTT/2 + time.Duration(6000/1200)*p.RTT/10
	if got := p.TransferDelay(6000); got != legacy {
		t.Errorf("unshaped TransferDelay = %v, want %v", got, legacy)
	}
	if got := p.TransferDelay(100 << 20); got != 3*time.Second {
		t.Errorf("unshaped cap = %v, want 3s", got)
	}
	p.BytesPerSec = 50_000
	want := legacy + time.Duration(6000)*time.Second/50_000
	if got := p.TransferDelay(6000); got != want {
		t.Errorf("shaped TransferDelay = %v, want %v", got, want)
	}
}

// fnvSum is the hash/fnv formulation every seeded draw used before
// Hash: FNV-1a over the seed's little-endian bytes, then the chunks.
func fnvSum(seed uint64, chunks ...[]byte) uint64 {
	h := fnv.New64a()
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], seed)
	h.Write(sb[:])
	for _, c := range chunks {
		h.Write(c)
	}
	return h.Sum64()
}

// TestHashMatchesFNV holds Hash to hash/fnv on random seeds, part lists,
// addresses and ports, in the three forms the simulation draws with:
// websim's zero-separated parts, flowJitter and flowDraw. The goldens
// cover one seed and never draw loss or DNS timeouts.
func TestHashMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	randString := func() string {
		b := make([]byte, rng.IntN(12))
		for i := range b {
			b[i] = byte(rng.UintN(256))
		}
		return string(b)
	}
	addrs := []netip.Addr{{},
		netip.MustParseAddr("127.0.0.1"), netip.MustParseAddr("203.0.113.9"), netip.MustParseAddr("::1"),
		netip.MustParseAddr("fe80::1%eth0"), netip.MustParseAddr("::ffff:10.0.0.1"), netip.MustParseAddr("2001:db8::1"),
	}
	for i := 0; i < 2000; i++ {
		seed := rng.Uint64()
		parts := make([]string, rng.IntN(5))
		var chunks [][]byte
		h := NewHash(seed)
		for j := range parts {
			parts[j] = randString()
			chunks = append(chunks, []byte{0}, []byte(parts[j]))
			h = h.Feed("\x00").Feed(parts[j])
		}
		if uint64(h) != fnvSum(seed, chunks...) {
			t.Fatalf("seed %d parts %q: Hash %x, fnv %x", seed, parts, uint64(h), fnvSum(seed, chunks...))
		}

		label, vantage, host := randString(), randString(), randString()
		dst := addrs[rng.IntN(len(addrs))]
		port := uint16(rng.UintN(1 << 16))
		max := time.Duration(1 + rng.Int64N(int64(time.Second)))
		b, _ := dst.MarshalBinary()
		if got, want := flowJitter(seed, vantage, dst, max), time.Duration(fnvSum(seed, []byte(vantage), b)%uint64(max)); got != want {
			t.Fatalf("flowJitter(%d, %q, %v, %v) = %v, fnv %v", seed, vantage, dst, max, got, want)
		}
		sum := fnvSum(seed, []byte(label), []byte(vantage), b, []byte{byte(port), byte(port >> 8)}, []byte(host))
		if got, want := flowDraw(seed, label, vantage, dst, port, host), float64(sum>>11)/float64(1<<53); got != want {
			t.Fatalf("flowDraw(%d, %q, %q, %v, %d, %q) = %v, fnv %v", seed, label, vantage, dst, port, host, got, want)
		}
	}
}

// Hashing and applying the chains allocate nothing: the browser builds
// a Path for every flow.
func TestConditionsAllocs(t *testing.T) {
	dst := netip.MustParseAddr("fe80::1%eth0")
	for _, name := range []string{"nominal-campus", "satellite"} {
		c, _ := ProfileByName(name)
		if n := testing.AllocsPerRun(100, func() {
			c.Path(7, Flow{Vantage: c.FlowVantage, Dst: dst, Port: 443, Host: "ebay.com"})
		}); n != 0 {
			t.Errorf("%s: %v allocs per Path, want 0", name, n)
		}
	}
}
