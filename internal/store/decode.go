package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the store's reflection-free read path. Save, the WAL
// compactor and Log.appendCommit write records through encoding/json;
// reading them back through it dominated recovery, so Load and
// replayWAL first try recordDecoder, which accepts exactly the bytes
// those encoders produce:
//
//   - each record's known keys, in struct order, each at most once;
//   - integers without fraction or exponent, booleans, and strings with
//     the escapes json.Marshal writes (\" \\ \n \r \t and \uXXXX outside
//     the surrogate range, such as its HTML-safe escape of '&');
//   - a retained NetLog capture as one JSON object, checked by one
//     json.Valid pass over its byte range and kept verbatim, as
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

// recordDecoder is the fast path. It is not safe for concurrent use;
// Load and replayWAL make one per call, so the low-cardinality strings
// it interns (crawl, OS, category, scheme, dest, initiator, net_error,
// err) are shared among that call's records only.
type recordDecoder struct {
	b    []byte // input being decoded
	i    int    // cursor into b
	strs map[string]string
	esc  []byte // unescaping scratch
}

func newRecordDecoder() *recordDecoder {
	return &recordDecoder{strs: make(map[string]string)}
}

// envelope decodes one Save-format line, without its newline, and
// appends its record to into. For any line outside the fast-path shape
// it reports false and appends nothing.
func (d *recordDecoder) envelope(line []byte, into *walPayload) bool {
	d.b, d.i = line, 0
	switch {
	case d.lit(`{"t":"page","page":`):
		var p PageRecord
		if d.page(&p) && d.closes() {
			into.Pages = append(into.Pages, p)
			return true
		}
	case d.lit(`{"t":"local","local":`):
		var l LocalRequest
		if d.local(&l) && d.closes() {
			into.Locals = append(into.Locals, l)
			return true
		}
	case d.lit(`{"t":"netlog","netlog":`):
		var n NetLogRecord
		if d.netlog(&n) && d.closes() {
			into.NetLogs = append(into.NetLogs, n)
			return true
		}
	}
	return false
}

// closes reports whether exactly one closing brace remains.
func (d *recordDecoder) closes() bool { return d.next('}') && d.i == len(d.b) }

// frame decodes one WAL frame payload as appendCommit writes it.
func (d *recordDecoder) frame(payload []byte) (p walPayload, ok bool) {
	d.b, d.i = payload, 0
	ok = d.object(func(key []byte) (int, bool) {
		switch string(key) {
		case "s":
			n, ok := d.digits()
			p.Seq = n
			return 0, ok
		case "p":
			return 1, d.array(func() bool {
				var r PageRecord
				if !d.page(&r) {
					return false
				}
				p.Pages = append(p.Pages, r)
				return true
			})
		case "l":
			return 2, d.array(func() bool {
				var r LocalRequest
				if !d.local(&r) {
					return false
				}
				p.Locals = append(p.Locals, r)
				return true
			})
		case "n":
			return 3, d.array(func() bool {
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
	return p, ok && d.i == len(d.b)
}

func (d *recordDecoder) page(p *PageRecord) bool {
	return d.object(func(key []byte) (int, bool) {
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
	return d.object(func(key []byte) (int, bool) {
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
			n, ok := d.digits()
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
	return d.object(func(key []byte) (int, bool) {
		switch string(key) {
		case "crawl":
			return 0, d.str(&n.Crawl, true)
		case "os":
			return 1, d.str(&n.OS, true)
		case "domain":
			return 2, d.str(&n.Domain, false)
		case "log":
			raw, ok := d.rawObject()
			n.Log = append(json.RawMessage(nil), raw...)
			return 3, ok
		}
		return 0, false
	})
}

// object decodes one JSON object. field decodes the member value at the
// cursor and returns its key's ordinal. Ordinals must rise strictly, as
// in encoding/json's output; that also rules out a repeated key, which
// encoding/json would merge or overwrite.
func (d *recordDecoder) object(field func(key []byte) (int, bool)) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	last := -1
	for {
		key, ok := d.key()
		if !ok {
			return false
		}
		ord, ok := field(key)
		if !ok || ord <= last {
			return false
		}
		last = ord
		if d.next('}') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// array decodes a non-empty JSON array, calling elem at each element.
// An empty array, which decodes to a non-nil empty slice and which
// omitempty never writes, is left to encoding/json.
func (d *recordDecoder) array(elem func() bool) bool {
	if !d.next('[') {
		return false
	}
	for {
		if !elem() {
			return false
		}
		if d.next(']') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// key decodes an unescaped object key and the colon after it.
func (d *recordDecoder) key() ([]byte, bool) {
	b := d.b
	if d.i >= len(b) || b[d.i] != '"' {
		return nil, false
	}
	start := d.i + 1
	for i := start; i < len(b); i++ {
		switch b[i] {
		case '"':
			if i+1 < len(b) && b[i+1] == ':' {
				d.i = i + 2
				return b[start:i], true
			}
			return nil, false
		case '\\':
			return nil, false
		}
	}
	return nil, false
}

// str decodes a string value into dst, interning it when intern is set.
func (d *recordDecoder) str(dst *string, intern bool) bool {
	b := d.b
	if d.i >= len(b) || b[d.i] != '"' {
		return false
	}
	start := d.i + 1
	ascii := true
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			raw := b[start:i]
			if !ascii && !utf8.Valid(raw) {
				return false
			}
			d.i = i + 1
			*dst = d.text(raw, intern)
			return true
		case c == '\\':
			return d.escaped(dst, start, intern)
		case c < 0x20:
			return false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return false
}

// escaped decodes a string that contains a backslash, from the byte
// after its opening quote, unescaping into the scratch buffer. Bytes
// outside escapes must be valid UTF-8, which holds exactly when the
// unescaped result is: an escape always yields whole UTF-8 sequences.
func (d *recordDecoder) escaped(dst *string, start int, intern bool) bool {
	b := d.b
	out := d.esc[:0]
	ascii := true
	for i := start; i < len(b); i++ {
		c := b[i]
		switch {
		case c == '"':
			d.esc = out
			if !ascii && !utf8.Valid(out) {
				return false
			}
			d.i = i + 1
			*dst = d.text(out, intern)
			return true
		case c == '\\':
			i++
			if i == len(b) {
				return false
			}
			switch e := b[i]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := hex4(b[i+1:])
				if !ok || utf16.IsSurrogate(r) {
					return false
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				return false
			}
		case c < 0x20:
			return false
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			out = append(out, c)
		}
	}
	return false
}

// hex4 decodes the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// text returns b as a string, from the interned set when intern is set.
func (d *recordDecoder) text(b []byte, intern bool) string {
	if !intern {
		return string(b)
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// digits decodes an unsigned integer literal. Past 19 digits it gives
// up, leaving range errors to encoding/json.
func (d *recordDecoder) digits() (uint64, bool) {
	b := d.b
	start := d.i
	var n uint64
	i := start
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if n >= 1e18 {
			return 0, false
		}
		n = n*10 + uint64(b[i]-'0')
	}
	if i == start || (b[start] == '0' && i > start+1) {
		return 0, false
	}
	d.i = i
	return n, true
}

// int64 decodes an integer literal that fits an int64.
func (d *recordDecoder) int64(dst *int64) bool {
	neg := d.next('-')
	n, ok := d.digits()
	if !ok || n > math.MaxInt64 {
		return false
	}
	*dst = int64(n)
	if neg {
		*dst = -*dst
	}
	return true
}

// int decodes an integer literal that fits an int.
func (d *recordDecoder) int(dst *int) bool {
	var n int64
	if !d.int64(&n) || int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}

func (d *recordDecoder) bool(dst *bool) bool {
	switch {
	case d.lit("true"):
		*dst = true
	case d.lit("false"):
		*dst = false
	default:
		return false
	}
	return true
}

// rawObject returns the JSON object at the cursor verbatim. A bracket
// scan that skips strings finds where it ends, and one json.Valid pass
// over exactly that range checks it: a range that starts with '{', ends
// with its matching '}' and is valid JSON is the one value encoding/json
// would have taken.
func (d *recordDecoder) rawObject() ([]byte, bool) {
	b := d.b
	start := d.i
	if start >= len(b) || b[start] != '{' {
		return nil, false
	}
	depth := 0
	for i := start; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			depth--
			if depth == 0 {
				raw := b[start : i+1]
				if !json.Valid(raw) {
					return nil, false
				}
				d.i = i + 1
				return raw, true
			}
		}
	}
	return nil, false
}

// next consumes c if it is the byte at the cursor.
func (d *recordDecoder) next(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// lit consumes s if the input continues with it.
func (d *recordDecoder) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}
