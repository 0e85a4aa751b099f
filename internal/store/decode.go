package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/knockandtalk/knockandtalk/internal/jsonscan"
)

// This file is the store's reflection-free read path. Save, the WAL
// compactor and Log.appendCommit write records through encoding/json;
// reading them back through it dominated recovery, so Load and
// replayWAL first try recordDecoder, which accepts exactly the bytes
// those encoders produce, token by token through package jsonscan:
//
//   - each record's known keys, in struct order, each at most once;
//   - the integers, booleans and strings jsonscan accepts;
//   - a retained NetLog capture as one JSON object, found and checked
//     in one pass by jsonscan's RawObject and kept verbatim, as
//     json.RawMessage keeps it.
//
// Any other byte (whitespace, an unknown or repeated key, null, a float,
// a surrogate escape, invalid UTF-8, an empty array) makes the fast path
// give up, and the input goes to encoding/json, which keeps defining the
// format. The fast path therefore only ever returns what encoding/json
// would: FuzzLoad and FuzzWALReplay hold the two paths to that, and
// TestGoldenDirectoryDecodesFast keeps every record a real campaign
// writes on the fast path.

// loadBatchRecords is how many decoded records Load commits at once.
const loadBatchRecords = 1024

// decodeJSONL decodes a stream in the Save line format and passes its
// records, in stream order, to commit in batches of at most
// loadBatchRecords; commit must copy what it keeps, since the batch is
// reused. A retained NetLog capture ends its batch: captures can be
// large, and a Load into a store with a log attached writes each batch
// as one WAL frame. Lines go through the fast path until the first one it
// rejects; from that line on, json.Decoder takes the rest of the stream
// and the record numbering continues. On a decode error, every record
// before the bad one has been committed.
func decodeJSONL(r io.Reader, commit func(*walPayload)) error {
	l := jsonlDecoder{commit: commit}
	err := l.decode(r)
	l.flush()
	return err
}

// jsonlDecoder is one decodeJSONL call in progress.
type jsonlDecoder struct {
	commit func(*walPayload)
	batch  walPayload
	record int // records decoded or being decoded, for error text
}

func (l *jsonlDecoder) flush() {
	if l.batch.len() == 0 {
		return
	}
	l.commit(&l.batch)
	l.batch = walPayload{Pages: l.batch.Pages[:0], Locals: l.batch.Locals[:0], NetLogs: l.batch.NetLogs[:0]}
}

func (l *jsonlDecoder) added() {
	if l.batch.len() >= loadBatchRecords || len(l.batch.NetLogs) > 0 {
		l.flush()
	}
}

// decode runs the fast path line by line, handing the stream to
// decodeSlow at the first line it rejects.
func (l *jsonlDecoder) decode(r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<20)
	dec := newRecordDecoder()
	var long []byte
	for {
		line, err := readLine(br, &long)
		switch {
		case err == io.EOF && len(line) == 0:
			return nil
		case err != nil && err != io.EOF:
			// json.Decoder meets the read error after the partial line,
			// where it would have met it reading the stream itself.
			return l.decodeSlow(io.MultiReader(bytes.NewReader(line), errReader{err}))
		}
		if !dec.envelope(bytes.TrimSuffix(line, []byte{'\n'}), &l.batch) {
			rest := io.Reader(bytes.NewReader(line))
			if err == nil {
				rest = io.MultiReader(rest, br)
			}
			return l.decodeSlow(rest)
		}
		l.record++
		l.added()
		if err == io.EOF {
			return nil
		}
	}
}

// decodeSlow is the format-defining path: encoding/json's stream
// decoder over the rest of the input.
func (l *jsonlDecoder) decodeSlow(r io.Reader) error {
	dec := json.NewDecoder(r)
	for dec.More() {
		l.record++
		var env envelope
		if err := dec.Decode(&env); err != nil {
			return fmt.Errorf("store: record %d: %w", l.record, err)
		}
		if err := l.batch.add(&env, l.record); err != nil {
			return err
		}
		l.added()
	}
	return nil
}

// add appends the envelope's record.
func (p *walPayload) add(env *envelope, record int) error {
	switch env.T {
	case "page":
		if env.Page == nil {
			return fmt.Errorf("store: record %d: page tag without payload", record)
		}
		p.Pages = append(p.Pages, *env.Page)
	case "local":
		if env.Local == nil {
			return fmt.Errorf("store: record %d: local tag without payload", record)
		}
		p.Locals = append(p.Locals, *env.Local)
	case "netlog":
		if env.NetLog == nil {
			return fmt.Errorf("store: record %d: netlog tag without payload", record)
		}
		p.NetLogs = append(p.NetLogs, *env.NetLog)
	default:
		return fmt.Errorf("store: record %d: unknown tag %q", record, env.T)
	}
	return nil
}

func (p *walPayload) len() int { return len(p.Pages) + len(p.Locals) + len(p.NetLogs) }

// readLine returns the next line including its newline, or the final
// unterminated one with io.EOF. A line longer than br's buffer is
// gathered in *long; either way the bytes are valid until the next call.
func readLine(br *bufio.Reader, long *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	buf := append((*long)[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = br.ReadSlice('\n')
		buf = append(buf, line...)
	}
	*long = buf
	return buf, err
}

// errReader returns err from every Read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// recordDecoder is the fast path, built on the shared jsonscan
// primitives. It is not safe for concurrent use; Load and replayWAL make
// one per call, so the low-cardinality strings it interns (crawl, OS,
// category, scheme, dest, initiator, net_error, err) are shared among
// that call's records only.
type recordDecoder struct {
	jsonscan.Scanner
	strs map[string]string
}

func newRecordDecoder() *recordDecoder {
	return &recordDecoder{strs: make(map[string]string)}
}

// envelope decodes one Save-format line, without its newline, and
// appends its record to into. For any line outside the fast-path shape
// it reports false and appends nothing.
func (d *recordDecoder) envelope(line []byte, into *walPayload) bool {
	d.Reset(line)
	switch {
	case d.Lit(`{"t":"page","page":`):
		var p PageRecord
		if d.page(&p) && d.closes() {
			into.Pages = append(into.Pages, p)
			return true
		}
	case d.Lit(`{"t":"local","local":`):
		var l LocalRequest
		if d.local(&l) && d.closes() {
			into.Locals = append(into.Locals, l)
			return true
		}
	case d.Lit(`{"t":"netlog","netlog":`):
		var n NetLogRecord
		if d.netlog(&n) && d.closes() {
			into.NetLogs = append(into.NetLogs, n)
			return true
		}
	}
	return false
}

// closes reports whether exactly one closing brace remains.
func (d *recordDecoder) closes() bool { return d.Next('}') && d.Done() }

// frame decodes one WAL frame payload as appendCommit writes it.
func (d *recordDecoder) frame(payload []byte) (p walPayload, ok bool) {
	d.Reset(payload)
	ok = d.Object(func(key []byte) (int, bool) {
		switch string(key) {
		case "s":
			n, ok := d.Digits()
			p.Seq = n
			return 0, ok
		case "p":
			return 1, d.Array(func() bool {
				var r PageRecord
				if !d.page(&r) {
					return false
				}
				p.Pages = append(p.Pages, r)
				return true
			})
		case "l":
			return 2, d.Array(func() bool {
				var r LocalRequest
				if !d.local(&r) {
					return false
				}
				p.Locals = append(p.Locals, r)
				return true
			})
		case "n":
			return 3, d.Array(func() bool {
				var r NetLogRecord
				if !d.netlog(&r) {
					return false
				}
				p.NetLogs = append(p.NetLogs, r)
				return true
			})
		}
		return 0, false
	})
	return p, ok && d.Done()
}

func (d *recordDecoder) page(p *PageRecord) bool {
	return d.Object(func(key []byte) (int, bool) {
		switch string(key) {
		case "crawl":
			return 0, d.str(&p.Crawl, true)
		case "os":
			return 1, d.str(&p.OS, true)
		case "domain":
			return 2, d.str(&p.Domain, false)
		case "rank":
			return 3, d.int(&p.Rank)
		case "category":
			return 4, d.str(&p.Category, true)
		case "url":
			return 5, d.str(&p.URL, false)
		case "final_url":
			return 6, d.str(&p.FinalURL, false)
		case "err":
			return 7, d.str(&p.Err, true)
		case "committed_at":
			return 8, d.int64((*int64)(&p.CommittedAt))
		case "events":
			return 9, d.int(&p.Events)
		}
		return 0, false
	})
}

func (d *recordDecoder) local(l *LocalRequest) bool {
	return d.Object(func(key []byte) (int, bool) {
		switch string(key) {
		case "crawl":
			return 0, d.str(&l.Crawl, true)
		case "os":
			return 1, d.str(&l.OS, true)
		case "domain":
			return 2, d.str(&l.Domain, false)
		case "rank":
			return 3, d.int(&l.Rank)
		case "category":
			return 4, d.str(&l.Category, true)
		case "url":
			return 5, d.str(&l.URL, false)
		case "scheme":
			return 6, d.str(&l.Scheme, true)
		case "host":
			return 7, d.str(&l.Host, false)
		case "port":
			n, ok := d.Digits()
			l.Port = uint16(n)
			return 8, ok && n <= math.MaxUint16
		case "path":
			return 9, d.str(&l.Path, false)
		case "dest":
			return 10, d.str(&l.Dest, true)
		case "delay":
			return 11, d.int64((*int64)(&l.Delay))
		case "initiator":
			return 12, d.str(&l.Initiator, true)
		case "net_error":
			return 13, d.str(&l.NetError, true)
		case "status_code":
			return 14, d.int(&l.StatusCode)
		case "via_redirect":
			return 15, d.bool(&l.ViaRedirect)
		case "sop_exempt":
			return 16, d.bool(&l.SOPExempt)
		}
		return 0, false
	})
}

func (d *recordDecoder) netlog(n *NetLogRecord) bool {
	return d.Object(func(key []byte) (int, bool) {
		switch string(key) {
		case "crawl":
			return 0, d.str(&n.Crawl, true)
		case "os":
			return 1, d.str(&n.OS, true)
		case "domain":
			return 2, d.str(&n.Domain, false)
		case "log":
			raw, ok := d.RawObject()
			n.Log = append(json.RawMessage(nil), raw...)
			return 3, ok
		}
		return 0, false
	})
}

// str decodes a string value into dst, interning it when intern is set.
func (d *recordDecoder) str(dst *string, intern bool) bool {
	b, ok := d.Str()
	if !ok {
		return false
	}
	if !intern {
		*dst = string(b)
	} else if s, ok := d.strs[string(b)]; ok {
		*dst = s
	} else {
		*dst = string(b)
		d.strs[*dst] = *dst
	}
	return true
}

// int64 decodes an integer literal that fits an int64 into dst.
func (d *recordDecoder) int64(dst *int64) bool {
	n, ok := d.Int64()
	*dst = n
	return ok
}

// int decodes an integer literal that fits an int into dst.
func (d *recordDecoder) int(dst *int) bool {
	n, ok := d.Int()
	*dst = n
	return ok
}

func (d *recordDecoder) bool(dst *bool) bool {
	v, ok := d.Bool()
	*dst = v
	return ok
}
