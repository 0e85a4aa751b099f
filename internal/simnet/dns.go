package simnet

import (
	"net/netip"
	"sync"
	"time"
)

// Resolver is a virtual DNS resolver. Names are registered into a flat
// zone; unregistered names fail with ERR_NAME_NOT_RESOLVED, the dominant
// failure class in the paper's crawls (~90% of load failures).
//
// Registration (Add/Remove) is mutex-guarded so world construction can
// bind sites from a worker pool. Resolution is deliberately lock-free:
// the zone is frozen once the world is built, and keeping the crawl's
// per-request lookup path free of synchronization benchmarked faster
// than an RWMutex (reader-count cache-line traffic on every request)
// and far cheaper than merging per-worker zone shards (a full map copy
// of the 100K-domain population). Do not resolve concurrently with
// registration.
type Resolver struct {
	mu   sync.Mutex // guards writes to zone; reads are lock-free post-build
	zone map[string][]netip.Addr
}

// NewResolver returns an empty resolver.
func NewResolver() *Resolver {
	return &Resolver{zone: make(map[string][]netip.Addr)}
}

// Add registers addresses for a name, appending to any existing records.
// Safe for concurrent use during world construction.
func (r *Resolver) Add(name string, addrs ...netip.Addr) {
	r.mu.Lock()
	r.zone[name] = append(r.zone[name], addrs...)
	r.mu.Unlock()
}

// Remove deletes all records for a name.
func (r *Resolver) Remove(name string) {
	r.mu.Lock()
	delete(r.zone, name)
	r.mu.Unlock()
}

// Len reports the number of registered names.
func (r *Resolver) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.zone)
}

// Resolve looks up a canonical host name. IP literals resolve to
// themselves and, following Chrome's behavior, localhost and every
// *.localhost name (HostSpace) resolve to the loopback addresses without
// consulting DNS. A name's answer is the zone's own record, capped so
// that appending to it copies: callers must not write to it.
func (r *Resolver) Resolve(name string) ([]netip.Addr, NetError) {
	if ip, ok := AddrLiteral(name); ok {
		return []netip.Addr{ip}, OK
	}
	if HostSpace(name) == SpaceLoopback {
		return []netip.Addr{netip.MustParseAddr("127.0.0.1"), netip.IPv6Loopback()}, OK
	}
	if addrs := r.zone[name]; len(addrs) > 0 {
		return addrs[:len(addrs):len(addrs)], OK
	}
	return nil, ErrNameNotResolved
}

// ResolutionDelay is the virtual time a successful lookup takes; failures
// take FailureDelay (a full search through the configured servers).
const (
	ResolutionDelay = 18 * time.Millisecond
	FailureDelay    = 120 * time.Millisecond
)
