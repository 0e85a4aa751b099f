// Package telemetry is the unified observability layer of the system:
// a lock-cheap process-wide metrics registry (counters, gauges, and
// fixed log-scale histograms, all atomic on the hot path) and a
// per-visit trace pipeline (bounded JSONL span sink plus the reader and
// aggregation behind the knocktrace CLI).
//
// The registry answers "what has this process done so far" — every
// subsystem (crawler, pipeline, store, serve) registers named, labeled
// metrics and the whole thing renders as Prometheus text. Traces
// answer "what happened during this one visit and where did the time
// go" — each page visit (crawled or ingested) emits one JSONL record
// carrying its spans (visit → netlog → detect → infer → classify →
// commit) with wall time, item counts, and outcome. Both views are fed
// from the same measured durations, so per-stage busy time aggregated
// from a trace file agrees exactly with the registry's counters for
// the same work.
package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (e.g. in-flight requests).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed log-scale bucket count: bucket i holds
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
// Bucket 0 holds zeros. 65 buckets cover the whole uint64 range, so a
// histogram never resizes and Observe is three atomic adds.
const histBuckets = 65

// Histogram accumulates a distribution in fixed log-scale (power of
// two) buckets. Durations observe as nanoseconds.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
	// exemplars holds the most recent traced observation per bucket —
	// a pointer swap beside the three atomic adds, only on observations
	// that carry a trace ID. Surfaced as OpenMetrics exemplars.
	exemplars [histBuckets]atomic.Pointer[exemplar]
}

// exemplar pairs one observed value with the trace that produced it.
type exemplar struct {
	traceID string
	value   uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// ObserveDuration records one duration sample in nanoseconds; negative
// durations clamp to zero.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// ObserveExemplar records one sample and, when traceID is non-empty,
// tags the sample's bucket with it as the bucket's most recent
// exemplar. An empty traceID is exactly Observe.
func (h *Histogram) ObserveExemplar(v uint64, traceID string) {
	h.Observe(v)
	if traceID != "" {
		h.exemplars[bits.Len64(v)].Store(&exemplar{traceID: traceID, value: v})
	}
}

// ObserveDurationExemplar records one duration sample tagged with the
// trace that produced it; negative durations clamp to zero.
func (h *Histogram) ObserveDurationExemplar(d time.Duration, traceID string) {
	if d < 0 {
		d = 0
	}
	h.ObserveExemplar(uint64(d), traceID)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Snapshot renders the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			le := uint64(0)
			if i > 0 {
				le = 1<<uint(i) - 1
			}
			b := Bucket{Le: le, N: n}
			if ex := h.exemplars[i].Load(); ex != nil {
				b.ExemplarTraceID = ex.traceID
				b.ExemplarValue = ex.value
			}
			s.Buckets = append(s.Buckets, b)
		}
	}
	return s
}

// Bucket is one non-empty histogram bucket: N samples ≤ Le (and above
// the previous bucket's bound).
type Bucket struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
	// ExemplarTraceID/ExemplarValue carry the bucket's most recent
	// traced observation (an OpenMetrics exemplar), when any.
	ExemplarTraceID string `json:"exemplar_trace_id,omitempty"`
	ExemplarValue   uint64 `json:"exemplar_value,omitempty"`
}

// HistogramSnapshot is the wire form of a histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile returns the q-quantile (q in [0, 1]) of the observed
// distribution, linearly interpolated within the log-scale bucket where
// the cumulative count crosses q. A bucket with inclusive upper bound
// le spans (le>>1, le] — le>>1 is the previous power-of-two bound — and
// the interpolated value assumes samples spread evenly across that
// span. A cumulative count landing exactly on a bucket's last sample
// returns the bucket's upper bound exactly (so Quantile(1) is the top
// occupied bucket's bound, as before), the zero bucket always returns
// 0, and the result is monotone non-decreasing in q.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	target := math.Ceil(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	if max := float64(s.Count); target > max {
		target = max
	}
	var seen float64
	for _, b := range s.Buckets {
		n := float64(b.N)
		if seen+n < target {
			seen += n
			continue
		}
		if b.Le == 0 {
			return 0
		}
		lo := b.Le >> 1
		frac := (target - seen) / n
		return lo + uint64(math.Round(float64(b.Le-lo)*frac))
	}
	return s.Buckets[len(s.Buckets)-1].Le
}

// Merge returns the union of two snapshots of the same bucket layout:
// counts and sums add, buckets combine by bound. Serving code uses it
// to aggregate one endpoint's per-cache-outcome latency series into a
// single distribution.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Le < o.Buckets[j].Le):
			out.Buckets = append(out.Buckets, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Le < s.Buckets[i].Le:
			out.Buckets = append(out.Buckets, o.Buckets[j])
			j++
		default:
			merged := Bucket{Le: s.Buckets[i].Le, N: s.Buckets[i].N + o.Buckets[j].N}
			// Exemplars don't merge numerically: keep one of the two
			// recents (s's when it has one).
			merged.ExemplarTraceID, merged.ExemplarValue = s.Buckets[i].ExemplarTraceID, s.Buckets[i].ExemplarValue
			if merged.ExemplarTraceID == "" {
				merged.ExemplarTraceID, merged.ExemplarValue = o.Buckets[j].ExemplarTraceID, o.Buckets[j].ExemplarValue
			}
			out.Buckets = append(out.Buckets, merged)
			i, j = i+1, j+1
		}
	}
	return out
}

// metricKey canonicalizes a metric name plus label pairs into the
// registry's map key. Labels render sorted by key, so call-site order
// does not mint distinct metrics.
func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be key/value pairs")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// splitKey decomposes a registry key back into name and label map
// (nil when unlabeled).
func splitKey(key string) (name string, labels map[string]string) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, nil
	}
	name = key[:i]
	labels = map[string]string{}
	for _, pair := range strings.Split(strings.TrimSuffix(key[i+1:], "}"), ",") {
		if k, v, ok := strings.Cut(pair, "="); ok {
			labels[k] = v
		}
	}
	return name, labels
}

// Registry is a concurrent-safe collection of named, labeled metrics.
// Metric handles are created on first use and permanent; the hot path
// (a handle's Add/Inc/Observe) is purely atomic, and re-resolving a
// handle by name costs one read-locked map lookup.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the binaries publish on
// their Prometheus /metrics endpoints.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name and label pairs,
// creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	key := metricKey(name, labels)
	r.mu.RLock()
	c := r.counters[key]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[key]; c == nil {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns the gauge registered under name and label pairs,
// creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	key := metricKey(name, labels)
	r.mu.RLock()
	g := r.gauges[key]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[key]; g == nil {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns the histogram registered under name and label
// pairs, creating it on first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	key := metricKey(name, labels)
	r.mu.RLock()
	h := r.hists[key]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[key]; h == nil {
		h = &Histogram{}
		r.hists[key] = h
	}
	return h
}

// CounterValue reads a counter without creating it; absent counters
// read zero.
func (r *Registry) CounterValue(name string, labels ...string) uint64 {
	key := metricKey(name, labels)
	r.mu.RLock()
	c := r.counters[key]
	r.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// CounterLabels collects every counter of one single-label family,
// keyed by the value of labelKey. Counters of the family that lack the
// label are skipped; the result is nil when the family is empty.
func (r *Registry) CounterLabels(name, labelKey string) map[string]uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out map[string]uint64
	for key, c := range r.counters {
		n, labels := splitKey(key)
		if n != name {
			continue
		}
		lv, ok := labels[labelKey]
		if !ok {
			continue
		}
		if out == nil {
			out = map[string]uint64{}
		}
		out[lv] += c.Value()
	}
	return out
}

// LabeledHistogram is one series of a histogram family: its decoded
// label set plus the snapshot at collection time.
type LabeledHistogram struct {
	Labels map[string]string
	Hist   HistogramSnapshot
}

// HistogramFamily snapshots every histogram registered under name,
// with labels decoded from the canonical key. The result is nil when
// the family is empty; order is unspecified.
func (r *Registry) HistogramFamily(name string) []LabeledHistogram {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []LabeledHistogram
	for key, h := range r.hists {
		n, labels := splitKey(key)
		if n != name {
			continue
		}
		out = append(out, LabeledHistogram{Labels: labels, Hist: h.Snapshot()})
	}
	return out
}

// Snapshot is the wire form of a whole registry: every metric under
// its canonical key (name, then sorted k=v labels in braces).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current values. Individual metric
// reads are atomic; the snapshot as a whole is not a consistent cut
// across metrics (writers keep writing), which is the usual metrics
// contract.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var s Snapshot
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for k, c := range r.counters {
			s.Counters[k] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for k, g := range r.gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for k, h := range r.hists {
			s.Histograms[k] = h.Snapshot()
		}
	}
	return s
}
