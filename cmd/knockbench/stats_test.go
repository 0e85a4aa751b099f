package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending, so percentile must sort
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50},
		{100, 90, 90},
		{1000, 99, 990},
		{40, 75, 30},
		{21, 50, 11},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..%d = %g, %v; want %g", c.p, c.n, got, err, c.want)
		}
	}
}

// TestPercentileGuard: a percentile with fewer than minTail samples
// beyond it fails the run instead of reporting one or two samples.
func TestPercentileGuard(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{1000, 99, true},  // 10 beyond
		{999, 99, false},  // 9 beyond
		{40, 75, true},    // 10 beyond
		{39, 75, false},   // 9 beyond
		{0, 50, false},    // nothing to rank
		{10, 50, false},   // 5 beyond
		{20, 50, true},    // 10 beyond
		{200, 100, false}, // the maximum has nothing beyond it
	} {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok || enough(c.n, c.p) != c.ok {
			t.Errorf("p%g of %d samples: err %v, enough %v, want ok=%v", c.p, c.n, err, enough(c.n, c.p), c.ok)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), the spread an outside harness
// computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4}, [3]float64{1.8125, 3.75, 7.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2, 8, 4, 6, 10}, [3]float64{3, 6, 9}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", s)
	}
}

func TestSeriesConcurrent(t *testing.T) {
	var s series
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				s.add(float64(i))
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if n := len(s.values()); n != 4000 {
		t.Fatalf("series holds %d samples, want 4000", n)
	}
	if _, err := percentile(s.values(), 99); err != nil {
		t.Fatal(err)
	}
}

func TestWakeLagGuard(t *testing.T) {
	if err := checkWakeLag(maxWakeLagMS - 0.5); err != nil {
		t.Errorf("lag under the bound failed the run: %v", err)
	}
	err := checkWakeLag(maxWakeLagMS + 0.5)
	if err == nil || !strings.Contains(err.Error(), "wake lag") {
		t.Errorf("lag over the bound: err %v", err)
	}
}
