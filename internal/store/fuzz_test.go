package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"
)

// referenceLoad decodes a Save-format stream with encoding/json alone,
// one record at a time: the format-defining behaviour Load's fast path
// must reproduce.
func referenceLoad(r io.Reader) (walPayload, error) {
	var out walPayload
	dec := json.NewDecoder(r)
	for record := 1; dec.More(); record++ {
		var env envelope
		if err := dec.Decode(&env); err != nil {
			return out, fmt.Errorf("store: record %d: %w", record, err)
		}
		if err := out.add(&env, record); err != nil {
			return out, err
		}
	}
	return out, nil
}

// decodedJSONL collects what decodeJSONL commits, in order.
func decodedJSONL(r io.Reader) (walPayload, error) {
	var out walPayload
	err := decodeJSONL(r, func(b *walPayload) {
		out.Pages = append(out.Pages, b.Pages...)
		out.Locals = append(out.Locals, b.Locals...)
		out.NetLogs = append(out.NetLogs, b.NetLogs...)
	})
	return out, err
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzLoad hardens the JSONL reader: arbitrary input must never panic;
// Load must commit the records, and return the error (record number
// included), that encoding/json alone gives; and anything accepted must
// survive a Save/Load round trip with counts intact.
func FuzzLoad(f *testing.F) {
	good := New()
	good.AddPage(samplePage("ebay.com", 104))
	good.AddLocal(sampleLocal("ebay.com"))
	var buf bytes.Buffer
	if err := good.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"t":"page","page":{"crawl":"x","os":"Windows","domain":"a","url":"http://a/"}}`)
	f.Add(`{"t":"alien"}`)
	f.Add(`{`)
	f.Add("")
	escaped := samplePage("esc.example", 7)
	escaped.URL = "https://esc.example/?a=1&b=<2>\u2028\"\\\t\x01é"
	good.AddPage(escaped)
	if err := good.AddNetLog("top100k-2020", "Windows", "ebay.com", sampleNetLog(f)); err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := good.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(buf.String() + `{"t": "page","page":{"crawl":"x"}}` + "\n" + `{"t":"page","page":{"rank":1.5}}`)
	f.Add(`{"t":"local","local":{"port":70000,"delay":-3,"sop_exempt":true}}` + "\n" + `{"t":"local","local":{"port":7,"Port":8}}`)
	f.Add(`{"t":"netlog","netlog":{"crawl":"c","log":{"a":[1,"}"]}}}` + "\n" + `{"t":"netlog","netlog":{"log":{"a":}}}`)
	f.Add(`{"t":"page","page":{"url":"\ud83d\ude00","err":"\u00e9"}}` + "\n\n" + `{"t":"page","page":{}}}`)
	f.Fuzz(func(t *testing.T, input string) {
		got, err := decodedJSONL(strings.NewReader(input))
		want, wantErr := referenceLoad(strings.NewReader(input))
		if errText(err) != errText(wantErr) {
			t.Fatalf("error = %v, encoding/json gives %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("records differ from encoding/json's:\n got %+v\nwant %+v", got, want)
		}

		s := New()
		if err := s.Load(strings.NewReader(input)); err != nil {
			return
		}
		var out bytes.Buffer
		if err := s.Save(&out); err != nil {
			t.Fatalf("saving accepted store: %v", err)
		}
		back := New()
		if err := back.Load(&out); err != nil {
			t.Fatalf("reloading saved store: %v", err)
		}
		if back.NumPages() != s.NumPages() || back.NumLocals() != s.NumLocals() || back.NumNetLogs() != s.NumNetLogs() {
			t.Fatal("round trip changed record counts")
		}
	})
}

// fuzzWALRecord frames one payload in the WAL record format, with an
// optionally wrong checksum.
func fuzzWALRecord(payload []byte, breakCRC bool) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	sum := crc32.Checksum(payload, walCRC)
	if breakCRC {
		sum ^= 0xff
	}
	binary.LittleEndian.PutUint32(hdr[4:8], sum)
	return append(hdr[:], payload...)
}

// referenceReplay is replayWAL with json.Unmarshal as the only payload
// decoder.
func referenceReplay(input []byte) (int64, []walPayload, error) {
	var out []walPayload
	valid, _, err := ReplayFrames(bytes.NewReader(input), walMagic, func(payload []byte) error {
		var p walPayload
		if err := json.Unmarshal(payload, &p); err != nil {
			return err
		}
		out = append(out, p)
		return nil
	})
	if err != nil && !errors.Is(err, ErrTornFrame) {
		err = fmt.Errorf("not a WAL: %v", err)
	}
	return valid, out, err
}

// FuzzWALReplay hardens crash recovery: arbitrary bytes must never
// panic the replayer; it must apply the payloads, and report the valid
// prefix and tail damage, that json.Unmarshal alone gives; the reported
// valid prefix must actually be a prefix of the input, and re-replaying
// exactly that prefix must be clean — same record count, no tail
// damage. That last property is what lets Open truncate to the prefix
// and keep appending.
func FuzzWALReplay(f *testing.F) {
	rec1 := fuzzWALRecord([]byte(`{"s":1,"p":[{"crawl":"x","os":"Windows","domain":"a.example","url":"http://a/"}]}`), false)
	rec2 := fuzzWALRecord([]byte(`{"l":[{"crawl":"x","os":"Windows","domain":"a.example","url":"http://localhost/","scheme":"http","host":"localhost","port":80,"path":"/","dest":"localhost","delay":5}]}`), false)
	valid := append([]byte(walMagic), append(append([]byte(nil), rec1...), rec2...)...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                                   // torn payload
	f.Add(valid[:len(walMagic)+4])                                // torn header
	f.Add(append([]byte(walMagic), fuzzWALRecord(rec1, true)...)) // flipped checksum
	f.Add(append(append([]byte(nil), valid...), fuzzWALRecord([]byte(`{"n":[]}`), false)...))
	f.Add([]byte(walMagic))
	f.Add([]byte(walMagic[:4]))
	f.Add([]byte{})
	f.Add([]byte("junk that is not a wal at all, longer than the magic"))
	encoded, err := json.Marshal(walPayload{
		Seq:    3,
		Pages:  []PageRecord{samplePage("ebay.com", 104), {Crawl: "c", URL: "http://x/?a&b<\u2029\n"}},
		Locals: []LocalRequest{sampleLocal("ebay.com")},
		NetLogs: []NetLogRecord{
			{Crawl: "c", OS: "Linux", Domain: "a", Log: json.RawMessage(`{"events":[{"p":"]}\"{"}]}`)},
			{Crawl: "c", OS: "Linux", Domain: "b", Log: json.RawMessage(`{}`)},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(walMagic), fuzzWALRecord(encoded, false)...))
	f.Add(append([]byte(walMagic), fuzzWALRecord([]byte(`{"s":2,"p":[{"crawl":"x","CRAWL":"y"}],"s":3}`), false)...))
	f.Add(append([]byte(walMagic), fuzzWALRecord([]byte(`{"n":[{"log":{"a":1}} ],"p":null}`), false)...))
	// A repeated array key decodes into the first array's elements.
	f.Add(append([]byte(walMagic), fuzzWALRecord([]byte(`{"p":[{"crawl":"a","rank":5}],"p":[{"crawl":"b"}]}`), false)...))
	f.Fuzz(func(t *testing.T, input []byte) {
		var applied []walPayload
		validLen, n, tailErr := replayWAL(bytes.NewReader(input), func(p walPayload) { applied = append(applied, p) })
		if n != len(applied) {
			t.Fatalf("reported %d records, applied %d", n, len(applied))
		}
		refValid, ref, refErr := referenceReplay(input)
		if validLen != refValid || errText(tailErr) != errText(refErr) {
			t.Fatalf("replay = (%d bytes, %v), json.Unmarshal gives (%d, %v)", validLen, tailErr, refValid, refErr)
		}
		if !reflect.DeepEqual(applied, ref) {
			t.Fatalf("payloads differ from json.Unmarshal's:\n got %+v\nwant %+v", applied, ref)
		}
		if validLen < 0 || validLen > int64(len(input)) {
			t.Fatalf("valid prefix %d outside input of %d bytes", validLen, len(input))
		}
		if tailErr != nil && !errors.Is(tailErr, errWALTorn) {
			return // not a WAL at all; nothing to re-replay
		}
		again := 0
		revalid, rn, rerr := replayWAL(bytes.NewReader(input[:validLen]), func(walPayload) { again++ })
		if rerr != nil {
			t.Fatalf("re-replaying the valid prefix reported damage: %v", rerr)
		}
		if revalid != validLen || rn != n {
			t.Fatalf("prefix replay = (%d bytes, %d records), want (%d, %d)", revalid, rn, validLen, n)
		}
	})
}
