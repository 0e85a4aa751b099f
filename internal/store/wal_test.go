package store

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// walVisit builds the deterministic i-th commit of the test sequence,
// shared with the kill-and-recover crash child so the parent can
// reconstruct the exact expected prefix.
func walVisit(i int) *Batch {
	var b Batch
	domain := fmt.Sprintf("site-%03d.example", i)
	b.AddPage(samplePage(domain, 100+i))
	l := sampleLocal(domain)
	b.AddLocal(l)
	return &b
}

// walReference builds an in-memory store holding the first n commits of
// the deterministic sequence.
func walReference(n int) *Store {
	st := New()
	for i := 0; i < n; i++ {
		st.AddBatch(walVisit(i))
	}
	return st
}

func saveBytes(t testing.TB, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWALOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, l, rec, err := Open(dir, LogOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Segments != 0 || rec.WALRecords != 0 || rec.Truncated {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}
	for i := 0; i < 5; i++ {
		st.AddBatch(walVisit(i))
	}
	if err := st.AddNetLog("top100k-2020", "Windows", "site-000.example", sampleNetLog(t)); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, st)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st2, l2, rec2, err := Open(dir, LogOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec2.WALRecords != 6 || rec2.Truncated {
		t.Fatalf("recovery = %+v, want 6 clean WAL records", rec2)
	}
	if got := saveBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("recovered store's canonical Save differs from pre-close store")
	}
	if st2.NumNetLogs() != 1 {
		t.Fatalf("NumNetLogs = %d after recovery", st2.NumNetLogs())
	}
}

// TestWALJournaledLoad seeds a durable store with Load, as knockserved
// -wal-dir and a resumed durable campaign do: pages and locals are
// journaled in batches, each retained capture in a frame of its own (so
// frame size stays about one capture's), and the directory reopens to
// the same store.
func TestWALJournaledLoad(t *testing.T) {
	src := walReference(1500)
	for _, d := range []string{"site-001.example", "site-002.example"} {
		if err := src.AddNetLog("top100k-2020", "Windows", d, sampleNetLog(t)); err != nil {
			t.Fatal(err)
		}
	}
	want := saveBytes(t, src)

	dir := t.TempDir()
	st, l, _, err := Open(dir, LogOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Load(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var netlogs []int
	if _, _, err := replayWAL(f, func(p walPayload) { netlogs = append(netlogs, len(p.NetLogs)) }); err != nil {
		t.Fatal(err)
	}
	// 3000 pages and locals in batches of 1024; the first capture ends
	// the third batch, the second is a batch of its own.
	if fmt.Sprint(netlogs) != "[0 0 1 1]" {
		t.Errorf("captures per WAL frame = %v, want [0 0 1 1]", netlogs)
	}

	back, l2, _, err := Open(dir, LogOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !bytes.Equal(saveBytes(t, back), want) {
		t.Error("reopened store's canonical Save differs from the loaded export")
	}
}

// TestWALTornTailRecovery damages the log at assorted points — mid
// record, flipped checksum byte, trailing garbage — and requires
// recovery to replay exactly the intact prefix, matching the canonical
// Save of a store holding those commits. This is the crash-recovery
// acceptance test: a torn WAL replays to the exact pre-crash results.
func TestWALTornTailRecovery(t *testing.T) {
	build := t.TempDir()
	st, l, _, err := Open(build, LogOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	const commits = 6
	// boundary[k] is the WAL length after k commits.
	boundary := []int64{l.WALBytes()}
	for i := 0; i < commits; i++ {
		st.AddBatch(walVisit(i))
		boundary = append(boundary, l.WALBytes())
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(filepath.Join(build, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}

	damage := []struct {
		name string
		mut  func([]byte) []byte
		want int // commits surviving recovery
		torn bool
	}{
		{"cut at record boundary", func(b []byte) []byte { return b[:boundary[4]] }, 4, false},
		{"cut mid header", func(b []byte) []byte { return b[:boundary[3]+5] }, 3, true},
		{"cut mid payload", func(b []byte) []byte { return b[:boundary[2]+20] }, 2, true},
		{"flipped payload byte in last record", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[boundary[5]+9+4] ^= 0xff
			return out
		}, 5, true},
		{"trailing garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), 0xde, 0xad, 0xbe) }, commits, true},
		{"torn before first record", func(b []byte) []byte { return b[:3] }, 0, true},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "wal.log"), d.mut(clean), 0o644); err != nil {
				t.Fatal(err)
			}
			got, lg, rec, err := Open(dir, LogOptions{CompactBytes: -1})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer lg.Close()
			if rec.Truncated != d.torn {
				t.Errorf("Truncated = %v (tail %q), want %v", rec.Truncated, rec.TailErr, d.torn)
			}
			if rec.WALRecords != d.want {
				t.Errorf("replayed %d records, want %d", rec.WALRecords, d.want)
			}
			if !bytes.Equal(saveBytes(t, got), saveBytes(t, walReference(d.want))) {
				t.Error("recovered store does not match the intact-prefix reference")
			}
			// The truncated log must keep accepting appends and survive
			// another cycle.
			got.AddBatch(walVisit(d.want))
			if err := lg.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := lg.Close(); err != nil {
				t.Fatal(err)
			}
			again, lg2, rec2, err := Open(dir, LogOptions{CompactBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer lg2.Close()
			if rec2.Truncated {
				t.Errorf("second recovery still torn: %+v", rec2)
			}
			if !bytes.Equal(saveBytes(t, again), saveBytes(t, walReference(d.want+1))) {
				t.Error("post-recovery append lost on the next open")
			}
		})
	}
}

func TestWALRefusesForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("definitely not a wal file\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir, LogOptions{}); err == nil {
		t.Fatal("Open accepted a non-WAL file instead of refusing to truncate it")
	}
}

func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	st, l, _, err := Open(dir, LogOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		st.AddBatch(walVisit(i))
	}
	if err := st.AddNetLog("top100k-2020", "Windows", "site-001.example", sampleNetLog(t)); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 1 {
		t.Fatalf("Segments = %d after first compaction", l.Segments())
	}
	if l.WALBytes() != int64(len(walMagic)) {
		t.Fatalf("WAL not truncated after compaction: %d bytes", l.WALBytes())
	}
	// More commits after the cut land in the fresh WAL.
	for i := 4; i < 8; i++ {
		st.AddBatch(walVisit(i))
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 2 {
		t.Fatalf("Segments = %d after second compaction", l.Segments())
	}
	// An empty compaction is a no-op, not an empty segment.
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 2 {
		t.Fatalf("empty compaction created a segment: %d", l.Segments())
	}
	want := saveBytes(t, st)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st2, l2, rec, err := Open(dir, LogOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Segments != 2 || rec.WALRecords != 0 {
		t.Fatalf("recovery = %+v, want 2 segments and an empty WAL", rec)
	}
	if got := saveBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("store recovered from segments differs from pre-close store")
	}
	if st2.NumNetLogs() != 1 {
		t.Fatalf("netlog lost through compaction: %d", st2.NumNetLogs())
	}
}

// TestWALCompactionCrashIdempotent reconstructs the exact crash window
// inside Compact — segment and MANIFEST durable, WAL truncation never
// reached disk — and requires replay to be idempotent: the WAL's copies
// of the compacted records (their sequence numbers are at or below the
// manifest's CompactedSeq) must be skipped, not double-applied.
func TestWALCompactionCrashIdempotent(t *testing.T) {
	dir := t.TempDir()
	st, l, _, err := Open(dir, LogOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	const commits = 5
	for i := 0; i < commits; i++ {
		st.AddBatch(walVisit(i))
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	preCompact, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash: manifest and segment landed, the truncation did not.
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), preCompact, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, l2, rec, err := Open(dir, LogOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Segments != 1 || rec.WALSkipped != commits || rec.WALRecords != 0 {
		t.Fatalf("recovery = %+v, want 1 segment and %d skipped WAL records", rec, commits)
	}
	if got, want := st2.NumPages(), commits; got != want {
		t.Fatalf("recovered %d pages, want %d — compacted records were double-applied", got, want)
	}
	if !bytes.Equal(saveBytes(t, st2), saveBytes(t, walReference(commits))) {
		t.Fatal("post-crash recovery does not match the pre-crash reference")
	}

	// Life goes on: sequence numbers must continue past the skipped
	// records so the next compaction covers only genuinely new commits.
	st2.AddBatch(walVisit(commits))
	if err := l2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, l3, rec3, err := Open(dir, LogOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if rec3.WALSkipped != 0 {
		t.Errorf("second recovery skipped %d records from a cleanly truncated WAL", rec3.WALSkipped)
	}
	if !bytes.Equal(saveBytes(t, st3), saveBytes(t, walReference(commits+1))) {
		t.Fatal("store after post-crash append + compaction does not match the reference")
	}
}

// TestWALCompactionCrashBeforeManifest covers the other half of the
// window: the segment file was renamed into place but the manifest
// install never happened. The orphan segment is ignored and the WAL —
// still the only registered copy — replays everything.
func TestWALCompactionCrashBeforeManifest(t *testing.T) {
	dir := t.TempDir()
	st, l, _, err := Open(dir, LogOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	const commits = 5
	for i := 0; i < commits; i++ {
		st.AddBatch(walVisit(i))
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	preCompact, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash: the segment exists, but neither the manifest install
	// nor the WAL truncation happened.
	if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), preCompact, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, l2, rec, err := Open(dir, LogOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Segments != 0 || rec.WALRecords != commits || rec.WALSkipped != 0 {
		t.Fatalf("recovery = %+v, want %d WAL records and no segments", rec, commits)
	}
	if !bytes.Equal(saveBytes(t, st2), saveBytes(t, walReference(commits))) {
		t.Fatal("recovery from the un-manifested WAL lost records")
	}
}

// TestWALConcurrentCommits hammers commits from many goroutines with
// background compaction triggering aggressively, then proves the
// reopened store is record-for-record identical (canonical Save bytes)
// to a single-threaded reference.
func TestWALConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	st, l, _, err := Open(dir, LogOptions{CompactBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				st.AddBatch(walVisit(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st2, l2, rec, err := Open(dir, LogOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Segments == 0 {
		t.Error("aggressive threshold never triggered background compaction")
	}
	if got, want := st2.NumPages(), workers*per; got != want {
		t.Fatalf("recovered %d pages, want %d", got, want)
	}
	if !bytes.Equal(saveBytes(t, st2), saveBytes(t, walReference(workers*per))) {
		t.Fatal("recovered store differs from single-threaded reference")
	}
}

// TestWALKillAndRecover spawns a child process that commits and
// checkpoints a known sequence — compacting partway through, so the
// recovered state spans a segment plus a live WAL — scribbles a partial
// record on the log (a crash mid-append), and SIGKILLs itself. The
// parent then recovers the directory and requires the exact
// checkpointed prefix.
func TestWALKillAndRecover(t *testing.T) {
	if dir := os.Getenv("KNOCKWAL_CRASH_DIR"); dir != "" {
		walCrashChild(dir)
		return // unreachable: the child kills itself
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWALKillAndRecover$", "-test.v")
	cmd.Env = append(os.Environ(), "KNOCKWAL_CRASH_DIR="+dir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("crash child exited cleanly:\n%s", out)
	}

	st, l, rec, err := Open(dir, LogOptions{CompactBytes: -1})
	if err != nil {
		t.Fatalf("recovery after kill: %v", err)
	}
	defer l.Close()
	if !rec.Truncated {
		t.Errorf("recovery = %+v, want a truncated torn tail", rec)
	}
	if rec.Segments != 1 {
		t.Errorf("recovered %d segments, want the child's mid-sequence compaction", rec.Segments)
	}
	if want := walCrashCommits - walCrashCompactAt; rec.WALRecords != want {
		t.Errorf("replayed %d WAL records, want %d", rec.WALRecords, want)
	}
	if !bytes.Equal(saveBytes(t, st), saveBytes(t, walReference(walCrashCommits))) {
		t.Fatal("post-kill recovery does not match the pre-crash reference")
	}
}

const (
	walCrashCommits   = 7
	walCrashCompactAt = 4 // commits captured in a segment before the kill
)

// walCrashChild runs in the forked test process: commit, checkpoint,
// compact partway, tear the log, die.
func walCrashChild(dir string) {
	st, l, _, err := Open(dir, LogOptions{CompactBytes: -1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child open:", err)
		os.Exit(2)
	}
	for i := 0; i < walCrashCommits; i++ {
		st.AddBatch(walVisit(i))
		if err := l.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "crash child checkpoint:", err)
			os.Exit(3)
		}
		if i == walCrashCompactAt-1 {
			if err := l.Compact(); err != nil {
				fmt.Fprintln(os.Stderr, "crash child compact:", err)
				os.Exit(4)
			}
		}
	}
	// A record header that promises more bytes than will ever arrive.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err == nil {
		f.Write([]byte{0x40, 0x01, 0x00, 0x00, 0xde, 0xad})
		f.Sync()
		f.Close()
	}
	p, _ := os.FindProcess(os.Getpid())
	p.Kill()
	select {} // wait for the signal
}
