package simnet

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Scheme is the URL scheme of a request. WebSocket schemes matter to the
// study: WS/WSS requests are exempt from the Same-Origin Policy and the
// paper observed extensive WSS use for localhost scanning.
type Scheme string

// Supported schemes.
const (
	SchemeHTTP  Scheme = "http"
	SchemeHTTPS Scheme = "https"
	SchemeWS    Scheme = "ws"
	SchemeWSS   Scheme = "wss"
)

// Secure reports whether the scheme is TLS-protected.
func (s Scheme) Secure() bool { return s == SchemeHTTPS || s == SchemeWSS }

// WebSocket reports whether the scheme is a WebSocket scheme.
func (s Scheme) WebSocket() bool { return s == SchemeWS || s == SchemeWSS }

// DefaultPort returns the scheme's default port.
func (s Scheme) DefaultPort() uint16 {
	if s.Secure() {
		return 443
	}
	return 80
}

// Request is a message-level network request as seen by a service.
type Request struct {
	Method    string // GET or POST
	Scheme    Scheme
	Host      string // the URL's host, canonical (CanonicalHost)
	Addr      netip.Addr
	Port      uint16
	Path      string // path plus query
	UserAgent string
	Origin    string // requesting page origin, for CORS/preflight modeling
	Preflight bool   // CORS preflight (OPTIONS) — used by the pna package
	Header    map[string]string
}

// URL reconstructs the full request URL.
func (r *Request) URL() string {
	hostport := r.Host
	if r.Port != r.Scheme.DefaultPort() {
		hostport = fmt.Sprintf("%s:%d", r.Host, r.Port)
	}
	path := r.Path
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	return fmt.Sprintf("%s://%s%s", r.Scheme, hostport, path)
}

// Response is a message-level service response.
type Response struct {
	Status      int
	Location    string // redirect target when Status is 3xx
	ContentType string
	BodySize    int
	// WebSocketAccept reports a successful WebSocket upgrade (101).
	WebSocketAccept bool
	// ServeDelay is extra server-side processing time before the
	// response headers are available.
	ServeDelay time.Duration
	// ResetAfterHeaders models a server that sends headers then resets.
	ResetAfterHeaders bool
	// Header carries response headers relevant to the study (e.g.
	// Access-Control-Allow-Private-Network for the PNA defense).
	Header map[string]string
	// Document is the parsed page for HTML responses, as an opaque
	// value (the browser asserts it to its page model). Transport-level
	// packages never inspect it.
	Document any
}

// Service handles message-level requests for one (address, port) binding.
type Service interface {
	Serve(req *Request) *Response
}

// ServiceFunc adapts a function to the Service interface.
type ServiceFunc func(req *Request) *Response

// Serve implements Service.
func (f ServiceFunc) Serve(req *Request) *Response { return f(req) }

// DialOutcome is the transport-level result of a connection attempt.
type DialOutcome int

// Dial outcomes.
const (
	DialAccepted DialOutcome = iota // a listener accepted the connection
	DialRefused                     // active refusal (RST to SYN)
	DialReset                       // connection established then reset
	DialTimeout                     // silently dropped; times out
)

// String returns a short name for the outcome.
func (d DialOutcome) String() string {
	switch d {
	case DialAccepted:
		return "accepted"
	case DialRefused:
		return "refused"
	case DialReset:
		return "reset"
	case DialTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("outcome(%d)", int(d))
	}
}

// NetError maps the outcome to its Chrome net error, or OK for accepted.
func (d DialOutcome) NetError() NetError {
	switch d {
	case DialRefused:
		return ErrConnectionRefused
	case DialReset:
		return ErrConnectionReset
	case DialTimeout:
		return ErrConnectionTimedOut
	default:
		return OK
	}
}

// TLSInfo describes the certificate presented on a TLS port.
type TLSInfo struct {
	// CommonName is the certificate subject CN.
	CommonName string
	// SubjectAltNames lists additional valid names; a leading "*." entry
	// is a wildcard for one label.
	SubjectAltNames []string
	// Broken models a server whose TLS handshake fails outright.
	Broken bool
}

// ValidFor reports whether the certificate matches the given host name.
// A "*." name matches exactly one leading label, per RFC 6125.
func (t *TLSInfo) ValidFor(host string) bool {
	matches := func(n string) bool {
		rest, wild := strings.CutPrefix(n, "*.")
		i := strings.IndexByte(host, '.')
		return n == host || wild && i > 0 && host[i+1:] == rest
	}
	return matches(t.CommonName) || slices.ContainsFunc(t.SubjectAltNames, matches)
}

// Endpoint is what a dialer finds at an (address, port): a transport
// outcome, the TLS configuration if any, and the service behind it.
type Endpoint struct {
	Outcome DialOutcome
	TLS     *TLSInfo
	Service Service
}

// Locator answers the question "what is listening at addr:port from this
// machine's point of view". The public Internet (Network), the crawling
// machine's localhost table, and its LAN inventory all implement it.
type Locator interface {
	Locate(addr netip.Addr, port uint16) Endpoint
}

// Network is the public Internet: a set of bound endpoints plus DNS and
// latency models. Dialing a known host on an unbound port is refused;
// dialing an unknown address times out (unroutable).
//
// Binding (Bind/BindService/AddHost) is mutex-guarded so world
// construction can register sites from a worker pool. Locate is
// lock-free by the same freeze contract as Resolver.Resolve: the
// endpoint tables are immutable once the world is built, and the
// per-request dial path stays free of synchronization (measured faster
// than read-locking on every dial, and cheaper than merging per-worker
// endpoint shards at 100K-site scale). Do not Locate concurrently with
// binding.
type Network struct {
	Resolver *Resolver
	// Seed feeds every deterministic draw the Conditions chain makes for
	// flows on this network.
	Seed uint64
	// online gates the crawler's connectivity checks (§3.1: "we first
	// check for network connectivity by pinging Google's DNS server").
	// It is atomic so tests can inject outages mid-crawl.
	online atomic.Bool

	mu        sync.Mutex // guards writes to endpoints/hosts during build
	endpoints map[netip.AddrPort]Endpoint
	hosts     map[netip.Addr]bool
}

// NewNetwork returns an empty, online network with a fresh resolver; the
// seed drives every deterministic timing draw made against it.
func NewNetwork(seed uint64) *Network {
	n := &Network{
		Resolver:  NewResolver(),
		Seed:      seed,
		endpoints: make(map[netip.AddrPort]Endpoint),
		hosts:     make(map[netip.Addr]bool),
	}
	n.online.Store(true)
	return n
}

// Bind attaches an endpoint at addr:port, implicitly registering the
// host. Safe for concurrent use during world construction.
func (n *Network) Bind(addr netip.Addr, port uint16, ep Endpoint) {
	n.mu.Lock()
	n.hosts[addr] = true
	n.endpoints[netip.AddrPortFrom(addr, port)] = ep
	n.mu.Unlock()
}

// BindService is shorthand for binding an accepting endpoint.
func (n *Network) BindService(addr netip.Addr, port uint16, tls *TLSInfo, svc Service) {
	n.Bind(addr, port, Endpoint{Outcome: DialAccepted, TLS: tls, Service: svc})
}

// AddHost registers a routable host with no listeners (all ports refuse).
func (n *Network) AddHost(addr netip.Addr) {
	n.mu.Lock()
	n.hosts[addr] = true
	n.mu.Unlock()
}

// NumHosts reports the number of registered hosts.
func (n *Network) NumHosts() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.hosts)
}

// Locate implements Locator for public destinations.
func (n *Network) Locate(addr netip.Addr, port uint16) Endpoint {
	if ep, ok := n.endpoints[netip.AddrPortFrom(addr, port)]; ok {
		return ep
	}
	if n.hosts[addr] {
		return Endpoint{Outcome: DialRefused}
	}
	return Endpoint{Outcome: DialTimeout}
}

// Ping models the crawler's connectivity check against a well-known
// public address (8.8.8.8).
func (n *Network) Ping(addr netip.Addr) bool { return n.online.Load() }

// SetOnline injects or clears a network outage. Safe to call while a
// crawl is running.
func (n *Network) SetOnline(v bool) { n.online.Store(v) }
