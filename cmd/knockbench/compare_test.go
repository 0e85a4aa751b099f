package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runs returns n values around center, spaced so the quartile spread
// is about width (as a share of center).
func runs(center, width float64, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = center * (1 + width*(float64(i)/float64(n-1)-0.5)*1.6)
	}
	return v
}

func TestVerdict(t *testing.T) {
	const bound = 0.10
	for _, c := range []struct {
		name       string
		base, head []float64
		dir        string
		want       string
	}{
		{"identical", runs(100, 0.02, 10), runs(100, 0.02, 10), lower, same},
		{"within bound", runs(100, 0.02, 10), runs(105, 0.02, 10), lower, same},
		{"slower beyond bound", runs(100, 0.02, 10), runs(115, 0.02, 10), lower, worse},
		{"throughput drop beyond bound", runs(100, 0.02, 10), runs(85, 0.02, 10), higher, worse},
		{"faster beyond spread", runs(100, 0.02, 10), runs(90, 0.02, 10), lower, better},
		{"throughput gain", runs(100, 0.02, 10), runs(106, 0.02, 10), higher, better},
		{"noisy base", runs(100, 0.30, 10), runs(104, 0.30, 10), lower, unresolved},
		{"noisy base, head beats every run", runs(100, 0.30, 10), runs(40, 0.02, 10), lower, better},
		{"noisy base, head much worse", runs(100, 0.30, 10), runs(300, 0.02, 10), lower, unresolved},
		{"no head runs", runs(100, 0.02, 10), nil, lower, unresolved},
	} {
		if got := verdict(c.base, c.head, c.dir, bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s (base spread %.3f)", c.name, got, c.want, spread(c.base))
		}
	}
}

func writeRecords(t *testing.T, path string, workload string, values map[string][]float64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for _, v := range values {
		n = len(v)
	}
	for i := 0; i < n; i++ {
		rec := newRecord(workload, uint64(i), 10)
		for name, v := range values {
			m, _ := lookup(name)
			rec.Metrics[name] = metricValue{Value: v[i], Unit: m.unit}
		}
		line, _ := json.Marshal(rec)
		f.Write(append(line, '\n'))
	}
}

// TestCompareSyntheticRuns drives -compare end to end over record
// files: a regression beyond its bound fails the gate, agreement passes,
// and per-layer metrics are shown without a verdict.
func TestCompareSyntheticRuns(t *testing.T) {
	dir := t.TempDir()
	manPath := filepath.Join("..", "..", "BENCHMARK.json")
	base := filepath.Join(dir, "base.jsonl")
	writeRecords(t, base, "crawl", map[string][]float64{
		"throughput_per_s": runs(26000, 0.02, 10),
		"p50_ms":           runs(83, 0.02, 10),
		"websim.build_s":   runs(0.1, 0.05, 10),
	})
	same := filepath.Join(dir, "same.jsonl")
	writeRecords(t, same, "crawl", map[string][]float64{
		"throughput_per_s": runs(26100, 0.02, 10),
		"p50_ms":           runs(83.5, 0.02, 10),
		"websim.build_s":   runs(0.2, 0.05, 10),
	})
	slow := filepath.Join(dir, "slow.jsonl")
	writeRecords(t, slow, "crawl", map[string][]float64{
		"throughput_per_s": runs(18000, 0.02, 10),
		"p50_ms":           runs(83, 0.02, 10),
		"websim.build_s":   runs(0.1, 0.05, 10),
	})

	var out bytes.Buffer
	if code := runCompare(&out, manPath, base, same); code != 0 {
		t.Errorf("same runs: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "websim.build_s") || !strings.Contains(out.String(), " -\n") {
		t.Errorf("per-layer metric missing or given a verdict:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare(&out, manPath, base, slow); code != 1 {
		t.Errorf("throughput regression: exit %d, want 1\n%s", code, out.String())
	}
	var line string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "throughput_per_s") {
			line = l
		}
	}
	if !strings.HasSuffix(line, worse) {
		t.Errorf("throughput line %q, want verdict %s", line, worse)
	}
}
