package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/report"
	"github.com/knockandtalk/knockandtalk/internal/store"
)

// restart is one timed restart of the durable directory.
type restart struct {
	open, index, render, total time.Duration
	rec                        store.Recovery
	report                     []byte
}

// restartOnce opens the directory (segment load and WAL replay), builds
// the site index, renders every report, then releases the index and
// closes the log.
func restartOnce(dir string, spans *spanLog) (*restart, error) {
	root := spans.start(nil, "iteration", "restart")
	defer root.end()
	var r restart
	start := time.Now()
	sp := spans.start(root, "open", "store")
	st, lg, rec, err := store.Open(dir, store.LogOptions{})
	sp.end()
	if err != nil {
		return nil, err
	}
	opened := time.Now()
	sp = spans.start(root, "index", "site index")
	pipeline.IndexFor(st).CrawlTable()
	sp.end()
	indexed := time.Now()
	sp = spans.start(root, "render", "report")
	var buf bytes.Buffer
	report.WriteAll(&buf, st, nil)
	sp.end()
	rendered := time.Now()
	pipeline.ReleaseIndex(st)
	if err := lg.Close(); err != nil {
		return nil, err
	}
	r.open, r.index, r.render = opened.Sub(start), indexed.Sub(opened), rendered.Sub(indexed)
	r.total = time.Since(start)
	r.rec, r.report = rec, buf.Bytes()
	return &r, nil
}

// checkReport fails unless the recovered store renders the expected
// report byte for byte.
func checkReport(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("recover: report of the recovered store differs (%d bytes, want %d)", len(got), len(want))
	}
	return nil
}

// runRecover is the recover workload.
func runRecover(b *bench) error {
	r := b.res
	f, err := repeatSetup(b, func() (*fixture, error) {
		return buildFixture(b.seed, b.tmp, false, true)
	}, func(f *fixture) { os.RemoveAll(f.dir) })
	if err != nil {
		return err
	}
	defer os.RemoveAll(f.dir)
	want := f.report
	if b.seed == goldenSeed {
		if want, err = os.ReadFile(filepath.Join(b.root, "testdata", "golden", "report.txt")); err != nil {
			return err
		}
	}
	if _, err := restartOnce(f.dir, nil); err != nil { // warm-up
		return err
	}
	runtime.GC()
	var total, open, index, render []float64
	var last *restart
	start := time.Now()
	for time.Since(start) < b.seconds || !enough(len(total), tailPercentile[b.workload]) {
		rs, err := restartOnce(f.dir, b.spans)
		if err != nil {
			return err
		}
		r.attempted++
		r.check(checkReport(rs.report, want))
		total = append(total, ms(rs.total))
		open = append(open, rs.open.Seconds())
		index = append(index, rs.index.Seconds())
		render = append(render, rs.render.Seconds())
		last = rs
	}
	r.set("throughput_per_s", float64(len(total))/time.Since(start).Seconds())
	if err := setLatency(b, total); err != nil {
		return err
	}
	r.set("peak_rss_mb", peakRSSMiB())
	r.set("store.recover_s", median(open))
	r.set("pipeline.index_build_s", median(index))
	r.set("report.render_s", median(render))
	r.set("store.segment_records", float64(last.rec.SegmentRecords))
	r.set("store.wal_records", float64(last.rec.WALRecords))
	return nil
}
