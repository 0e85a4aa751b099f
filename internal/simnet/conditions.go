package simnet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"
)

// Conditions is the composable network-condition layer: an ordered chain
// of impairment stages applied to every flow the browser opens. It
// subsumes the old LatencyModel (base latency + deterministic jitter)
// and extends it with the tc/netem-style axes — packet/connection loss,
// bandwidth-induced transfer delay, DNS slowdown and resolver failure,
// and connect-timeout policy. Every stage draws from (seed, flow) hashes
// only, so a crawl under any profile reproduces bit-for-bit.
//
// The nominal chain (Nominal) produces exactly the timings the old
// model did, keeping unimpaired crawls byte-identical to the goldens.
type Conditions struct {
	// Name is the profile name recorded in manifests and telemetry.
	Name string
	// FlowVantage is the identity mixed into per-flow hashes. Nominal
	// conditions use the machine's vantage name (so per-OS crawls keep
	// their historical timings); impaired profiles use their own name,
	// making the impairment pattern independent of the crawling OS.
	FlowVantage string
	// Stages is the impairment chain, applied in order.
	Stages []Stage
}

// Flow identifies one network interaction from the crawling machine's
// point of view. Dst is unset for DNS lookups (the address is not known
// yet); Host is empty for flows addressed by IP literal.
type Flow struct {
	Vantage string
	Dst     netip.Addr
	Port    uint16
	Host    string
}

// Path is the effective per-flow network behavior after the chain has
// been applied: what the browser uses for every timing decision.
type Path struct {
	// RTT is the round-trip time to the destination.
	RTT time.Duration
	// ConnectTimeout is how long a silently-dropped dial takes to fail.
	ConnectTimeout time.Duration
	// Drop marks a connection the link loses: the dial times out even if
	// a listener would have accepted it.
	Drop bool
	// DNSResolve and DNSFailure are the successful-lookup and NXDOMAIN
	// latencies; DNSTimeout marks a lookup that dies at the resolver
	// (ERR_DNS_TIMED_OUT after DNSTimeoutAfter), a failure mode distinct
	// from NXDOMAIN.
	DNSResolve      time.Duration
	DNSFailure      time.Duration
	DNSTimeout      bool
	DNSTimeoutAfter time.Duration
	// BytesPerSec caps the link's transfer rate; zero means unshaped.
	BytesPerSec int64
}

// TransferDelay is the body-read time for a response of the given size:
// the nominal RTT-scaled read (capped as before) plus the serialization
// delay a shaped link adds on top.
func (p *Path) TransferDelay(bytes int) time.Duration {
	d := p.RTT/2 + time.Duration(bytes/1200)*p.RTT/10
	if d > 3*time.Second {
		d = 3 * time.Second
	}
	if p.BytesPerSec > 0 && bytes > 0 {
		d += time.Duration(bytes) * time.Second / time.Duration(p.BytesPerSec)
	}
	return d
}

// Stage is one link in the impairment chain: Apply returns p with the
// stage's effect added. Implementations must be pure functions of
// (seed, flow): no shared state, no wall clock. The path travels by
// value, so applying a chain allocates nothing.
type Stage interface {
	Apply(seed uint64, f Flow, p Path) Path
}

// DNSTimeoutDelay is the default time a resolver-timeout lookup spends
// before giving up (several retransmits to a dead resolver).
const DNSTimeoutDelay = 4 * time.Second

// Path applies the chain to one flow, starting from the package's
// nominal defaults (ConnectTimeout, ResolutionDelay, FailureDelay).
func (c *Conditions) Path(seed uint64, f Flow) Path {
	p := Path{
		ConnectTimeout:  ConnectTimeout,
		DNSResolve:      ResolutionDelay,
		DNSFailure:      FailureDelay,
		DNSTimeoutAfter: DNSTimeoutDelay,
	}
	for _, st := range c.Stages {
		p = st.Apply(seed, f, p)
	}
	return p
}

// Impaired reports whether the chain contains any stage beyond nominal
// latency and jitter — the condition under which the crawler counts
// visits into crawl_impaired_visits_total.
func (c *Conditions) Impaired() bool {
	for _, st := range c.Stages {
		switch st.(type) {
		case BaseLatency, Jitter:
		default:
			return true
		}
	}
	return false
}

// Scope selects which address spaces a stage affects, so a lossy
// wifi link can hurt LAN and public flows while loopback stays perfect.
type Scope uint8

// Scope bits.
const (
	ScopeLoopback Scope = 1 << iota
	ScopeLAN
	ScopeLinkLocal
	ScopePublic

	// ScopeRemote is everything that leaves the machine.
	ScopeRemote = ScopeLAN | ScopeLinkLocal | ScopePublic
	// ScopeAll covers every destination class.
	ScopeAll = ScopeLoopback | ScopeRemote
)

// has reports whether the scope covers an address space; the Scope bits
// follow the Space order.
func (s Scope) has(sp Space) bool { return s&(1<<sp) != 0 }

// BaseLatency adds the class base RTT for the destination.
type BaseLatency struct {
	Loopback, LAN, LinkLocal, Public time.Duration
}

// Apply implements Stage.
func (s BaseLatency) Apply(seed uint64, f Flow, p Path) Path {
	p.RTT += [...]time.Duration{s.Loopback, s.LAN, s.LinkLocal, s.Public}[AddrSpace(f.Dst)]
	return p
}

// Jitter adds deterministic per-destination jitter, up to the class
// maximum, hashed from (seed, vantage, destination) exactly as the old
// LatencyModel did — the hash must stay byte-compatible or nominal
// crawls drift from the goldens.
type Jitter struct {
	Loopback, LAN, LinkLocal, Public time.Duration
}

// Apply implements Stage.
func (s Jitter) Apply(seed uint64, f Flow, p Path) Path {
	max := [...]time.Duration{s.Loopback, s.LAN, s.LinkLocal, s.Public}[AddrSpace(f.Dst)]
	p.RTT += flowJitter(seed, f.Vantage, f.Dst, max)
	return p
}

func flowJitter(seed uint64, vantage string, dst netip.Addr, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(uint64(NewHash(seed).Feed(vantage).FeedAddr(dst)) % uint64(max))
}

// flowDraw returns a deterministic uniform draw in [0, 1) for one flow
// and purpose label.
func flowDraw(seed uint64, label, vantage string, dst netip.Addr, port uint16, host string) float64 {
	h := NewHash(seed).Feed(label).Feed(vantage).FeedAddr(dst).Feed(string([]byte{byte(port), byte(port >> 8)})).Feed(host)
	return float64(h>>11) / float64(1<<53)
}

// Hash is a seeded 64-bit FNV-1a hash, the source of every
// deterministic draw in the simulation. Its methods feed it bytes
// without allocating; the sums equal those of hash/fnv's New64a fed the
// same bytes.
type Hash uint64

// NewHash starts a hash with the seed's eight little-endian bytes.
func NewHash(seed uint64) Hash {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	return Hash(14695981039346656037).Feed(string(b[:]))
}

// Feed feeds the bytes of s.
func (h Hash) Feed(s string) Hash {
	for i := 0; i < len(s); i++ {
		h = (h ^ Hash(s[i])) * 1099511628211
	}
	return h
}

// FeedAddr feeds the bytes of a.MarshalBinary: none for the zero Addr, 4
// for IPv4, 16 and the zone for IPv6.
func (h Hash) FeedAddr(a netip.Addr) Hash {
	if a.Is4() {
		b := a.As4()
		return h.Feed(string(b[:]))
	}
	if a.Is6() {
		b := a.As16()
		return h.Feed(string(b[:])).Feed(a.Zone())
	}
	return h
}

// Loss drops a fraction of connections: a dropped dial times out (after
// Path.ConnectTimeout) even on a listening port. The draw is keyed per
// (seed, vantage, destination, port), so a given link is consistently
// bad within a crawl — individual port knocks drop independently of one
// another, but deterministically across runs.
type Loss struct {
	Rate  float64
	Scope Scope
}

// Apply implements Stage.
func (s Loss) Apply(seed uint64, f Flow, p Path) Path {
	if s.Rate > 0 && s.Scope.has(AddrSpace(f.Dst)) && flowDraw(seed, "loss", f.Vantage, f.Dst, f.Port, "") < s.Rate {
		p.Drop = true
	}
	return p
}

// Bandwidth caps the link's transfer rate, adding serialization delay to
// body reads (Path.TransferDelay). The tightest cap in the chain wins.
type Bandwidth struct {
	BytesPerSec int64
	Scope       Scope
}

// Apply implements Stage.
func (s Bandwidth) Apply(seed uint64, f Flow, p Path) Path {
	if s.BytesPerSec > 0 && s.Scope.has(AddrSpace(f.Dst)) && (p.BytesPerSec == 0 || s.BytesPerSec < p.BytesPerSec) {
		p.BytesPerSec = s.BytesPerSec
	}
	return p
}

// DNSImpairment slows lookups and makes a fraction of them die at the
// resolver: a timed-out lookup fails with ERR_DNS_TIMED_OUT after
// TimeoutAfter, distinguishable in the NetLog from NXDOMAIN. Timeouts
// are keyed per (seed, host), so the same names fail on every run.
type DNSImpairment struct {
	ResolveDelay time.Duration // replaces the nominal ResolutionDelay when > 0
	FailureDelay time.Duration // replaces the nominal FailureDelay when > 0
	TimeoutRate  float64
	TimeoutAfter time.Duration // replaces DNSTimeoutDelay when > 0
}

// Apply implements Stage.
func (s DNSImpairment) Apply(seed uint64, f Flow, p Path) Path {
	if s.ResolveDelay > 0 {
		p.DNSResolve = s.ResolveDelay
	}
	if s.FailureDelay > 0 {
		p.DNSFailure = s.FailureDelay
	}
	if s.TimeoutAfter > 0 {
		p.DNSTimeoutAfter = s.TimeoutAfter
	}
	if s.TimeoutRate > 0 && f.Host != "" &&
		flowDraw(seed, "dns-timeout", f.Vantage, netip.Addr{}, 0, f.Host) < s.TimeoutRate {
		p.DNSTimeout = true
	}
	return p
}

// ConnectTimeoutPolicy overrides how long a silently-dropped dial takes
// to fail; the package ConnectTimeout constant is the nominal default.
type ConnectTimeoutPolicy struct {
	Timeout time.Duration
}

// Apply implements Stage.
func (s ConnectTimeoutPolicy) Apply(seed uint64, f Flow, p Path) Path {
	if s.Timeout > 0 {
		p.ConnectTimeout = s.Timeout
	}
	return p
}

// Nominal returns the unimpaired conditions for a vantage: exactly the
// timings the pre-Conditions LatencyModel produced, stage by stage.
func Nominal(v Vantage) *Conditions {
	return &Conditions{
		Name:        "nominal",
		FlowVantage: v.Name,
		Stages: []Stage{
			BaseLatency{Loopback: 150 * time.Microsecond, LAN: time.Millisecond, LinkLocal: time.Millisecond, Public: v.BaseRTT},
			Jitter{Loopback: 250 * time.Microsecond, LAN: 4 * time.Millisecond, LinkLocal: 2 * time.Millisecond, Public: v.Jitter},
		},
	}
}

// nominalFor builds a named nominal profile pinned to one vantage. Its
// FlowVantage stays the vantage name, so a Windows crawl under
// "nominal-campus" is byte-identical to a default Windows crawl.
func nominalFor(name string, v Vantage) *Conditions {
	c := Nominal(v)
	c.Name = name
	return c
}

// impaired builds a named impairment profile. Its flows hash on the
// profile name, so the impairment pattern is independent of the
// crawling OS.
func impaired(name string, stages ...Stage) *Conditions {
	return &Conditions{Name: name, FlowVantage: name, Stages: stages}
}

// SweepOrder is the severity chain the detection-degradation sweep
// asserts monotone decay over: each profile is strictly harsher than the
// one before it on every axis it shares.
var SweepOrder = []string{"nominal", "residential-congested", "mobile-3g", "satellite"}

// ProfileNames lists every named profile ProfileByName accepts.
func ProfileNames() []string {
	return []string{
		"nominal", "nominal-campus", "nominal-residential",
		"lossy-wifi", "residential-congested", "mobile-3g", "satellite",
	}
}

// ProfileByName resolves a named profile. The empty string and "nominal"
// return nil: run under the crawling machine's own vantage, unimpaired —
// the byte-identical-to-golden configuration. The impairment profiles'
// base/jitter figures follow the shaping recipes netem deployments use
// for these link types; loss and DNS rates rise with severity so the
// detection-degradation sweep decays monotonically along SweepOrder.
func ProfileByName(name string) (*Conditions, error) {
	switch name {
	case "", "nominal":
		return nil, nil
	case "nominal-campus":
		return nominalFor("nominal-campus", VantageCampus), nil
	case "nominal-residential":
		return nominalFor("nominal-residential", VantageResidential), nil
	case "residential-congested":
		return impaired("residential-congested",
			BaseLatency{Loopback: 150 * time.Microsecond, LAN: 2 * time.Millisecond, LinkLocal: time.Millisecond, Public: 85 * time.Millisecond},
			Jitter{Loopback: 250 * time.Microsecond, LAN: 6 * time.Millisecond, LinkLocal: 2 * time.Millisecond, Public: 110 * time.Millisecond},
			Loss{Rate: 0.02, Scope: ScopePublic},
			Bandwidth{BytesPerSec: 750_000, Scope: ScopePublic},
			DNSImpairment{ResolveDelay: 45 * time.Millisecond, FailureDelay: 300 * time.Millisecond, TimeoutRate: 0.01},
		), nil
	case "mobile-3g":
		return impaired("mobile-3g",
			BaseLatency{Loopback: 150 * time.Microsecond, LAN: time.Millisecond, LinkLocal: time.Millisecond, Public: 180 * time.Millisecond},
			Jitter{Loopback: 250 * time.Microsecond, LAN: 4 * time.Millisecond, LinkLocal: 2 * time.Millisecond, Public: 220 * time.Millisecond},
			Loss{Rate: 0.05, Scope: ScopePublic},
			Bandwidth{BytesPerSec: 48_000, Scope: ScopePublic},
			DNSImpairment{ResolveDelay: 90 * time.Millisecond, FailureDelay: 500 * time.Millisecond, TimeoutRate: 0.03, TimeoutAfter: 5 * time.Second},
		), nil
	case "satellite":
		return impaired("satellite",
			BaseLatency{Loopback: 150 * time.Microsecond, LAN: time.Millisecond, LinkLocal: time.Millisecond, Public: 600 * time.Millisecond},
			Jitter{Loopback: 250 * time.Microsecond, LAN: 4 * time.Millisecond, LinkLocal: 2 * time.Millisecond, Public: 160 * time.Millisecond},
			Loss{Rate: 0.09, Scope: ScopePublic},
			Bandwidth{BytesPerSec: 135_000, Scope: ScopePublic},
			DNSImpairment{ResolveDelay: 650 * time.Millisecond, FailureDelay: 1200 * time.Millisecond, TimeoutRate: 0.05, TimeoutAfter: 6 * time.Second},
		), nil
	case "lossy-wifi":
		return impaired("lossy-wifi",
			BaseLatency{Loopback: 150 * time.Microsecond, LAN: 3 * time.Millisecond, LinkLocal: 2 * time.Millisecond, Public: 35 * time.Millisecond},
			Jitter{Loopback: 250 * time.Microsecond, LAN: 8 * time.Millisecond, LinkLocal: 4 * time.Millisecond, Public: 48 * time.Millisecond},
			Loss{Rate: 0.08, Scope: ScopeRemote},
		), nil
	default:
		return nil, fmt.Errorf("simnet: unknown network profile %q (have %v)", name, ProfileNames())
	}
}
