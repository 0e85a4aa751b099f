package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
)

// This file is the store's durability engine. A directory opened with
// Open holds three kinds of files:
//
//	wal.log          append-only write-ahead log of commits
//	seg-NNNNNN.jsonl immutable sorted segments (canonical Save format)
//	MANIFEST         JSON list of live segments with checksums
//
// Every commit appends one WAL record — a length-prefixed, CRC32C
// checksummed JSON batch carrying a monotonic sequence number — before
// landing in the shard buffers, both under the log's lock so the log is
// always an exact prefix-complete journal of the in-memory state.
// Compaction cuts the store's delta since the last cut into a new
// sorted segment (written to a temp file, fsynced, renamed), registers
// it in the MANIFEST together with the last sequence number the
// segments now cover, and only then truncates the WAL. Replay is
// idempotent against a crash anywhere in that sequence: records whose
// sequence number is <= the manifest's CompactedSeq are already inside
// a segment and are skipped, so a WAL left untruncated by a crash
// between the manifest install and the truncate never double-applies.
// The manifest and segment fsyncs (file and directory) are checked —
// a failed sync aborts the compaction before the truncate, so the WAL
// is never shortened while it is still the only durable copy.
// Recovery on Open loads the manifest's segments, then replays the
// WAL, tolerating a torn or corrupt tail: the valid prefix is applied
// and the tail is dropped, exactly the contract a crash mid-append
// requires. Appends are buffered; Checkpoint flushes and fsyncs, which
// is the crawler's periodic durability point. The canonical Save export
// is untouched by any of this — segments merely reuse its line format.

// walMagic begins every WAL file. A file that is shorter than the magic
// but matches its prefix is treated as a torn empty log; a file whose
// first bytes differ is refused outright (it is not ours to truncate).
const walMagic = "knockwal1\n"

// walCRC is the CRC32C (Castagnoli) table used for record checksums.
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walPayload is the JSON body of one WAL record: the records of one
// commit, in commit order. Seq is the record's monotonic sequence
// number, starting at 1 per log; replay skips records whose Seq the
// manifest says are already captured in segments. Seq 0 marks an
// unsequenced record (direct replayWAL input, e.g. the fuzz target)
// and is always applied.
type walPayload struct {
	Seq     uint64         `json:"s,omitempty"`
	Pages   []PageRecord   `json:"p,omitempty"`
	Locals  []LocalRequest `json:"l,omitempty"`
	NetLogs []NetLogRecord `json:"n,omitempty"`
}

// LogOptions configures a durable store directory.
type LogOptions struct {
	// CompactBytes is the WAL size that triggers background compaction
	// into a segment. 0 means the 4 MiB default; negative disables
	// automatic compaction (explicit Compact still works).
	CompactBytes int64
}

// DefaultCompactBytes is the WAL size that triggers compaction when
// LogOptions does not say otherwise.
const DefaultCompactBytes = 4 << 20

func (o LogOptions) compactThreshold() int64 {
	switch {
	case o.CompactBytes < 0:
		return 0
	case o.CompactBytes == 0:
		return DefaultCompactBytes
	default:
		return o.CompactBytes
	}
}

// Recovery reports what Open found and replayed.
type Recovery struct {
	// Segments and SegmentRecords count the manifest's segment files
	// and the records loaded from them.
	Segments       int
	SegmentRecords int
	// WALRecords and WALBytes describe the replayed valid WAL prefix.
	WALRecords int
	WALBytes   int64
	// WALSkipped counts valid WAL records that were not applied because
	// the manifest says a segment already holds them — the footprint of
	// a crash between a compaction's manifest install and its WAL
	// truncation. They are part of the valid prefix but never replayed.
	WALSkipped int
	// Truncated reports that the WAL had a torn or corrupt tail, which
	// was dropped; TailErr describes the damage.
	Truncated bool
	TailErr   string
}

// Log is the write-ahead log and segment set attached to a store. All
// methods are safe for concurrent use with store writers.
type Log struct {
	dir  string
	st   *Store
	opts LogOptions

	// mu serializes WAL appends together with their shard commits, and
	// compaction cuts. Lock order is mu before shard locks; nothing
	// that holds a shard lock ever takes mu.
	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	closed   bool
	err      error  // first append/IO error, sticky
	segMark  Mark   // store records already captured in segments
	nextSeq  uint64 // sequence number of the next WAL record
	manifest walManifest

	walBytes atomic.Int64

	compactReq chan struct{}
	done       chan struct{}
	wg         sync.WaitGroup
}

type walManifest struct {
	Segments []walSegment `json:"segments"`
	// CompactedSeq is the highest WAL sequence number whose record is
	// captured in the segments above. Replay skips WAL records at or
	// below it, making recovery idempotent when a crash lands between a
	// compaction's manifest install and its WAL truncation.
	CompactedSeq uint64 `json:"compacted_seq,omitempty"`
}

type walSegment struct {
	Name    string `json:"name"`
	CRC32C  uint32 `json:"crc32c"`
	Pages   int    `json:"pages"`
	Locals  int    `json:"locals"`
	NetLogs int    `json:"netlogs"`
}

// Open opens (or creates) a durable store directory: it loads the
// manifest's segments, replays the WAL's valid prefix — dropping a torn
// or corrupt tail — and returns the recovered store with the log
// attached, so every subsequent commit is journaled. The returned store
// must be written only by this process; close the log before reopening
// the directory.
func Open(dir string, opts LogOptions) (*Store, *Log, Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, Recovery{}, fmt.Errorf("store: opening wal dir: %w", err)
	}
	st := New()
	l := &Log{
		dir:        dir,
		st:         st,
		opts:       opts,
		compactReq: make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	var rec Recovery

	// Segments first: they hold everything compacted out of the WAL.
	if err := l.loadManifest(); err != nil {
		return nil, nil, rec, err
	}
	for _, seg := range l.manifest.Segments {
		n, err := loadSegment(st, filepath.Join(dir, seg.Name), seg.CRC32C)
		if err != nil {
			return nil, nil, rec, fmt.Errorf("store: segment %s: %w", seg.Name, err)
		}
		rec.Segments++
		rec.SegmentRecords += n
	}
	l.segMark = st.Mark()

	// Then the WAL: replay the valid prefix on top of the segments.
	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, rec, fmt.Errorf("store: opening wal: %w", err)
	}
	compacted := l.manifest.CompactedSeq
	var maxSeq uint64
	valid, nrec, tailErr := replayWAL(f, func(p walPayload) {
		if p.Seq > maxSeq {
			maxSeq = p.Seq
		}
		if p.Seq != 0 && p.Seq <= compacted {
			// A compaction made this record durable in a segment but
			// crashed before truncating the WAL; applying it again would
			// duplicate it.
			rec.WALSkipped++
			return
		}
		// The log is not yet attached, so this applies to the shards
		// and journals scopes without re-appending to the WAL.
		st.commit(p.Pages, p.Locals, p.NetLogs)
	})
	if tailErr != nil && !errors.Is(tailErr, errWALTorn) {
		f.Close()
		return nil, nil, rec, fmt.Errorf("store: wal.log: %v", tailErr)
	}
	rec.WALRecords = nrec - rec.WALSkipped
	rec.WALBytes = valid
	l.nextSeq = compacted + 1
	if maxSeq >= l.nextSeq {
		l.nextSeq = maxSeq + 1
	}
	if tailErr != nil {
		rec.Truncated = true
		rec.TailErr = tailErr.Error()
	}
	if valid == 0 {
		// Fresh (or fully torn) log: start it with the magic.
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt([]byte(walMagic), 0)
		}
		if err != nil {
			f.Close()
			return nil, nil, rec, fmt.Errorf("store: initializing wal: %w", err)
		}
		valid = int64(len(walMagic))
	} else if rec.Truncated {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, rec, fmt.Errorf("store: truncating torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, rec, fmt.Errorf("store: seeking wal: %w", err)
	}
	l.f = f
	l.bw = bufio.NewWriterSize(f, 1<<20)
	l.walBytes.Store(valid)

	st.wal = l
	l.wg.Add(1)
	go l.compactLoop()
	return st, l, rec, nil
}

func (l *Log) loadManifest() error {
	data, err := os.ReadFile(filepath.Join(l.dir, "MANIFEST"))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading manifest: %w", err)
	}
	if err := json.Unmarshal(data, &l.manifest); err != nil {
		return fmt.Errorf("store: parsing manifest: %w", err)
	}
	return nil
}

// loadSegment streams one immutable segment into the store, verifying
// its checksum. Segments are fsynced before they enter the manifest, so
// damage here is disk corruption, not a crash artifact — it fails the
// open rather than being silently dropped.
func loadSegment(st *Store, path string, want uint32) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	crc := crc32.New(walCRC)
	before := st.NumPages() + st.NumLocals() + st.NumNetLogs()
	if err := st.Load(io.TeeReader(f, crc)); err != nil {
		return 0, err
	}
	// Load reads to EOF deciding there are no more records, so the tee
	// has seen the whole file by now.
	if got := crc.Sum32(); got != want {
		return 0, fmt.Errorf("checksum mismatch: manifest %08x, file %08x", want, got)
	}
	return st.NumPages() + st.NumLocals() + st.NumNetLogs() - before, nil
}

// replayWAL reads WAL records from r through the shared frame layer,
// calling apply for each fully valid one, and returns the byte length
// of the valid prefix, the number of records applied, and the tail
// damage if any. Errors wrapping ErrTornFrame are recoverable (truncate
// to the valid prefix and continue); anything else means r is not a WAL
// at all. It never panics on arbitrary input. Payloads decode on the
// fast path of decode.go, falling back to json.Unmarshal.
func replayWAL(r io.Reader, apply func(walPayload)) (valid int64, records int, tailErr error) {
	dec := newRecordDecoder()
	valid, records, tailErr = ReplayFrames(r, walMagic, func(payload []byte) error {
		p, ok := dec.frame(payload)
		if !ok {
			p = walPayload{}
			if err := json.Unmarshal(payload, &p); err != nil {
				return err
			}
		}
		if apply != nil {
			apply(p)
		}
		return nil
	})
	if tailErr != nil && !errors.Is(tailErr, ErrTornFrame) {
		tailErr = fmt.Errorf("not a WAL: %v", tailErr)
	}
	return valid, records, tailErr
}

// appendCommit journals one commit. Called by Store.commit with l.mu
// held; errors are sticky (the in-memory store stays authoritative, but
// Checkpoint/Close will report the log as broken).
func (l *Log) appendCommit(ps []PageRecord, ls []LocalRequest, nls []NetLogRecord) {
	if l.err != nil {
		return
	}
	if l.closed {
		l.err = errors.New("store: append to closed wal")
		return
	}
	payload, err := json.Marshal(walPayload{Seq: l.nextSeq, Pages: ps, Locals: ls, NetLogs: nls})
	if err != nil {
		l.err = fmt.Errorf("store: encoding wal record: %w", err)
		return
	}
	l.nextSeq++
	n, err := AppendFrame(l.bw, payload)
	if err != nil {
		l.err = fmt.Errorf("store: appending wal record: %w", err)
		return
	}
	l.walBytes.Add(int64(n))
}

// maybeCompact nudges the background compactor when the WAL has grown
// past the threshold. Non-blocking; called after every commit.
func (l *Log) maybeCompact() {
	t := l.opts.compactThreshold()
	if t == 0 || l.walBytes.Load() < t {
		return
	}
	select {
	case l.compactReq <- struct{}{}:
	default:
	}
}

func (l *Log) compactLoop() {
	defer l.wg.Done()
	for {
		select {
		case <-l.done:
			return
		case <-l.compactReq:
			l.Compact() // sticky error; visible via Err/Checkpoint/Close
		}
	}
}

// Compact cuts everything not yet in a segment — the WAL's contents —
// into a new sorted immutable segment, registers it in the manifest,
// and truncates the WAL. Commits stall for the duration of the cut
// (the WAL lock is held), which is bounded by the compaction threshold.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return errors.New("store: compacting closed wal")
	}
	var pages []PageRecord
	var locals []LocalRequest
	var netlogs []NetLogRecord
	mark := l.st.DeltaSince(l.segMark,
		func(p *PageRecord) { pages = append(pages, *p) },
		func(lr *LocalRequest) { locals = append(locals, *lr) },
		func(n *NetLogRecord) { netlogs = append(netlogs, *n) },
	)
	if len(pages) == 0 && len(locals) == 0 && len(netlogs) == 0 {
		l.segMark = mark
		return nil
	}
	sortAll(pages, locals, netlogs)

	name := fmt.Sprintf("seg-%06d.jsonl", len(l.manifest.Segments)+1)
	crc, err := writeSegment(l.dir, name, pages, locals, netlogs)
	if err != nil {
		l.err = err
		return err
	}
	next := l.manifest
	next.Segments = append(append([]walSegment(nil), l.manifest.Segments...), walSegment{
		Name: name, CRC32C: crc,
		Pages: len(pages), Locals: len(locals), NetLogs: len(netlogs),
	})
	// Appends hold l.mu, so every WAL record written so far — exactly
	// the delta just cut — has a sequence number below l.nextSeq.
	next.CompactedSeq = l.nextSeq - 1
	if err := writeManifest(l.dir, next); err != nil {
		// The WAL is still the only durable registered copy; leave it
		// untouched.
		l.err = err
		return err
	}
	l.manifest = next

	// The segment is durable and registered, and CompactedSeq makes
	// replay skip the WAL's copies even if the truncation below never
	// reaches disk: the records are now redundant and the log restarts
	// empty.
	err = l.bw.Flush()
	if err == nil {
		err = l.f.Truncate(int64(len(walMagic)))
	}
	if err == nil {
		_, err = l.f.Seek(int64(len(walMagic)), io.SeekStart)
	}
	if err != nil {
		l.err = fmt.Errorf("store: truncating wal after compaction: %w", err)
		return l.err
	}
	l.bw.Reset(l.f)
	l.walBytes.Store(int64(len(walMagic)))
	l.segMark = mark
	return nil
}

// writeSegment writes one immutable sorted segment via temp file +
// fsync + rename, returning its CRC32C.
func writeSegment(dir, name string, pages []PageRecord, locals []LocalRequest, netlogs []NetLogRecord) (uint32, error) {
	tmp := filepath.Join(dir, ".tmp-"+name)
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("store: writing segment: %w", err)
	}
	crc := crc32.New(walCRC)
	err = encodeJSONL(io.MultiWriter(f, crc), pages, locals, netlogs)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: writing segment %s: %w", name, err)
	}
	if err := syncDir(dir); err != nil {
		// The rename may not be durable; the caller must not treat the
		// segment as a safe copy (the orphaned file is harmless — it is
		// not in the manifest).
		return 0, fmt.Errorf("store: syncing dir after segment %s: %w", name, err)
	}
	return crc.Sum32(), nil
}

// writeManifest atomically replaces the manifest. It returns only after
// the new manifest and the rename are fsynced: compaction truncates the
// WAL on success, so a manifest that might not survive a crash must be
// reported as a failure.
func writeManifest(dir string, m walManifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	tmp := filepath.Join(dir, ".tmp-MANIFEST")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	_, err = f.Write(append(data, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, "MANIFEST"))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: installing manifest: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("store: syncing dir after manifest: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so renames within it are durable. A
// filesystem that does not support directory fsync (EINVAL/ENOTSUP) is
// treated as success — there is nothing more we can do there — but a
// real I/O failure is reported so compaction does not truncate a WAL
// whose replacement may not survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)) {
		return nil
	}
	return err
}

// Checkpoint flushes buffered WAL appends and fsyncs the log: on
// return, every commit made before the call survives a crash. This is
// the crawler's periodic durability point and the serving layer's
// drain step.
func (l *Log) Checkpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return errors.New("store: checkpointing closed wal")
	}
	if err := l.bw.Flush(); err != nil {
		l.err = fmt.Errorf("store: flushing wal: %w", err)
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("store: syncing wal: %w", err)
		return l.err
	}
	return nil
}

// Err returns the log's sticky error, if any I/O has failed. The
// in-memory store remains usable; durability is what broke.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// WALBytes reports the current WAL length, including the header.
func (l *Log) WALBytes() int64 { return l.walBytes.Load() }

// Segments reports how many immutable segments the manifest holds.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.manifest.Segments)
}

// Dir returns the durable directory.
func (l *Log) Dir() string { return l.dir }

// Close stops the background compactor, flushes and fsyncs the WAL,
// and closes it. Callers must quiesce writers first; commits after
// Close are applied in memory but not journaled (and set the sticky
// error). The directory can then be reopened.
func (l *Log) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.err
	}
	l.closed = true
	err := l.bw.Flush()
	if serr := l.f.Sync(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("store: closing wal: %w", err)
	}
	return l.err
}

// WAL returns the log attached to the store by Open, or nil for a
// purely in-memory store.
func (s *Store) WAL() *Log { return s.wal }
