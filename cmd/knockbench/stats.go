package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// minTail is the number of samples that must lie beyond a reported
// percentile. Fewer, and the percentile is one or two unlucky samples,
// not a property of the system.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// exact samples. It fails unless at least minTail samples lie beyond the
// rank, so a run too short for its percentile fails instead of
// reporting noise.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// enough reports whether n samples put minTail of them beyond the p-th
// percentile. Timed loops run past their length until it holds, so a
// slow machine lengthens a run instead of failing it.
func enough(n int, p float64) bool {
	return n-int(math.Ceil(p/100*float64(n))) >= minTail
}

// quartiles returns the first quartile, median and third quartile of
// values by the method of Python's statistics.quantiles(values, n=4)
// (the default "exclusive" method), so spreads computed here match the
// ones an outside harness computes over the same runs. One value is its
// own quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle value (the mean of the middle two for an even
// count), as Python's statistics.median.
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// spread is the distance between the quartiles as a share of the
// median: the run-to-run noise a bound is judged against.
func spread(values []float64) float64 {
	q1, m, q3 := quartiles(values)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// series collects exact samples from concurrent observers: request
// latencies from the loadgen Observer, generator lag from the request
// builders, checkpoint stalls from the checkpoint ticker.
type series struct {
	mu sync.Mutex
	v  []float64
}

func (s *series) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

// values returns a copy of the samples collected so far.
func (s *series) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

func (s *series) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}
