package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var manifestPath = filepath.Join("..", "..", "BENCHMARK.json")

// maxBound caps an end-to-end metric's regression bound. The run-to-run
// spread of the CPU-bound metrics on a shared 2-core VM is 10–20%, so
// a tighter bound would flag noise as regressions.
const maxBound = 0.25

// TestManifest checks BENCHMARK.json against the metrics this command
// declares: the same workloads and metrics with the same units and
// directions, well-formed names, bounded end-to-end metrics, and every
// per-layer metric tied to an end-to-end metric and workload it moves.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedKeys(top), []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json keys %v, want %v", got, want)
	}
	man, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := man.Command, []string{"bash", "cmd/knockbench/run.sh"}; !reflect.DeepEqual(got, want) {
		t.Errorf("command %v, want %v", got, want)
	}
	if got, want := man.Paths, []string{"cmd/knockbench", "results/bench"}; !reflect.DeepEqual(got, want) {
		t.Errorf("paths %v, want %v", got, want)
	}
	if man.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the command's default %d", man.RunSeconds, runSeconds)
	}

	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("manifest workloads %v, want %v", names, workloads)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	declared := func(defs []manifestDef, want []metric, bounded bool) {
		if len(defs) != len(want) {
			t.Errorf("manifest declares %d metrics, the command %d", len(defs), len(want))
		}
		for i, d := range defs {
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q malformed or repeated", d.Name)
			}
			seen[d.Name] = true
			if !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
				t.Errorf("%s: unit %q or direction %q malformed", d.Name, d.Unit, d.Better)
			}
			if i < len(want) && (d.Name != want[i].name || d.Unit != want[i].unit || d.Better != want[i].better) {
				t.Errorf("manifest metric %d is %s %s %s, the command's %s %s %s",
					i, d.Name, d.Unit, d.Better, want[i].name, want[i].unit, want[i].better)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound <= 0 || *d.Bound > maxBound):
				t.Errorf("%s: bound must be in (0, %g]", d.Name, maxBound)
			case !bounded && d.Bound != nil:
				t.Errorf("per-layer metric %s has a bound", d.Name)
			}
		}
	}
	declared(man.EndToEnd, endToEnd, true)
	declared(man.PerLayer, perLayer, false)

	// Set-up carries the largest bound, so work moved into it shows.
	var setup float64
	for _, d := range man.EndToEnd {
		if d.Name == "setup_s" && d.Bound != nil {
			setup = *d.Bound
		}
	}
	for _, d := range man.EndToEnd {
		if d.Bound != nil && *d.Bound > setup {
			t.Errorf("%s bound %g exceeds setup_s's %g", d.Name, *d.Bound, setup)
		}
	}

	isWorkload := func(w string) bool {
		_, ok := runners[w]
		return ok
	}
	for _, m := range perLayer {
		if len(m.on) == 0 || len(m.moves) == 0 {
			t.Errorf("%s: measured on no workload or moves nothing", m.name)
		}
		for _, w := range m.on {
			if !isWorkload(w) {
				t.Errorf("%s: measured on unknown workload %q", m.name, w)
			}
		}
		for _, mv := range m.moves {
			name, w, ok := strings.Cut(mv, "@")
			e2e, known := lookup(name)
			if !ok || !known || e2e.on != nil || !isWorkload(w) {
				t.Errorf("%s: moves %q, which names no end-to-end metric and workload", m.name, mv)
			}
		}
		if m.unchanged != "" && !isWorkload(m.unchanged) {
			t.Errorf("%s: unchanged on unknown workload %q", m.name, m.unchanged)
		}
	}
	for _, w := range workloads {
		if _, ok := tailPercentile[w]; !ok {
			t.Errorf("%s has no tail percentile", w)
		}
	}
	if maxUnattributedShare <= 0 || maxUnattributedShare >= 1 {
		t.Errorf("unattributed-share bound %g must be a share in (0, 1)", maxUnattributedShare)
	}
}

// TestResultCarriesDeclaredMetrics: a result line carries exactly the
// declared end-to-end metrics untraced and the declared per-layer ones
// traced, a workload that skips a metric it measures fails, and an
// undeclared metric cannot be emitted.
func TestResultCarriesDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		r := newResult(w)
		for _, m := range endToEnd {
			r.set(m.name, 1)
		}
		if err := r.complete(false); err != nil {
			t.Errorf("%s untraced: %v", w, err)
		}
		measured := measuredOn(w)
		if len(measured) == 0 {
			t.Errorf("%s measures no per-layer metric", w)
			continue
		}
		for _, name := range measured[1:] {
			r.set(name, 1)
		}
		if err := r.complete(true); err == nil {
			t.Errorf("%s traced: missing %s not reported", w, measured[0])
		}
		r.set(measured[0], 1)
		if err := r.complete(true); err != nil {
			t.Errorf("%s traced: %v", w, err)
		}
		for traced, want := range map[bool][]metric{false: endToEnd, true: perLayer} {
			var names []string
			for _, m := range want {
				names = append(names, m.name)
			}
			sort.Strings(names)
			if got := sortedKeys(r.summary(traced).Metrics); !reflect.DeepEqual(got, names) {
				t.Errorf("%s traced=%v: result metrics %v, want %v", w, traced, got, names)
			}
		}
		for _, line := range r.lines() {
			if f := strings.Fields(line); len(f) != 4 || f[0] != w {
				t.Errorf("malformed metric line %q", line)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric did not panic")
		}
	}()
	newResult("crawl").set("crawl_pages_per_s", 1)
}
