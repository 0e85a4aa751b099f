package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of one (workload, metric) comparison.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict compares head runs against base runs of one metric.
// unresolved: the base runs spread wider than bound between their
// quartiles, unless every head run beats every base run (better).
// worse: the head median is worse than the base median by more than
// bound. better: the head median beats the base median by more than the
// base spread and head wins at least nine in ten (head, base) pairs.
// same: anything else.
func verdict(base, head []float64, direction string, bound float64) string {
	if len(base) == 0 || len(head) == 0 {
		return unresolved
	}
	sign := 1.0 // positive change is an improvement
	if direction == lower {
		sign = -1
	}
	bm, hm := median(base), median(head)
	change := sign * (hm - bm) / abs(bm)
	wins, pairs, allBeat := 0, 0, true
	for _, h := range head {
		for _, b := range base {
			pairs++
			if sign*(h-b) > 0 {
				wins++
			} else {
				allBeat = false
			}
		}
	}
	sp := spread(base)
	switch {
	case sp > bound && allBeat:
		return better
	case sp > bound:
		return unresolved
	case change < -bound:
		return worse
	case change > sp && float64(wins) >= 0.9*float64(pairs):
		return better
	default:
		return same
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// readRecords reads a -json record file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// byMetric groups records' values by workload and metric.
func byMetric(recs []record) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, r := range recs {
		for name, v := range r.Metrics {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], v.Value)
		}
	}
	return out
}

// runCompare prints, for each (workload, metric) in either file, both
// sides' medians and quartiles and, for end-to-end metrics, a verdict
// from the manifest's bounds and directions. It returns 1 when any
// end-to-end metric is worse or unresolved.
func runCompare(w io.Writer, manifestPath, basePath, headPath string) int {
	man, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "knockbench: %v\n", err)
		return 2
	}
	baseRecs, err := readRecords(basePath)
	if err == nil {
		var headRecs []record
		headRecs, err = readRecords(headPath)
		if err == nil {
			return compare(w, man, byMetric(baseRecs), byMetric(headRecs))
		}
	}
	fmt.Fprintf(os.Stderr, "knockbench: %v\n", err)
	return 2
}

func compare(w io.Writer, man *manifest, base, head map[[2]string][]float64) int {
	defs := man.definitions()
	keys := map[[2]string]bool{}
	for k := range base {
		keys[k] = true
	}
	for k := range head {
		keys[k] = true
	}
	sorted := make([][2]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	code := 0
	fmt.Fprintf(w, "%-12s %-30s %10s %23s %10s %23s %5s  %s\n", "workload", "metric", "base", "base q1..q3", "head", "head q1..q3", "runs", "verdict")
	for _, k := range sorted {
		b, h := base[k], head[k]
		v := "-"
		if d, ok := defs[k[1]]; ok && d.Bound != nil {
			v = verdict(b, h, d.Better, *d.Bound)
			if v == worse || v == unresolved {
				code = 1
			}
		}
		fmt.Fprintf(w, "%-12s %-30s %s %s %2d/%-2d  %s\n", k[0], k[1], side(b), side(h), len(b), len(h), v)
	}
	return code
}

// side renders one side's median and quartiles.
func side(v []float64) string {
	if len(v) == 0 {
		return fmt.Sprintf("%10s %23s", "-", "-")
	}
	q1, m, q3 := quartiles(v)
	return fmt.Sprintf("%10.4g %11.4g..%-10.4g", m, q1, q3)
}
