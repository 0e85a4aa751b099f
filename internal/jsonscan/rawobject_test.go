package jsonscan_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/knockandtalk/knockandtalk/internal/goldencampaign"
	"github.com/knockandtalk/knockandtalk/internal/jsonscan"
)

// bracketRawObject is the two-pass RawObject the validator replaced: a
// bracket scan that skips strings finds where the object at b[0] ends,
// and json.Valid checks that range. It returns the range and the cursor
// after it.
func bracketRawObject(b []byte) ([]byte, int, bool) {
	if len(b) == 0 || b[0] != '{' {
		return nil, 0, false
	}
	depth := 0
	for i := 0; i < len(b); i++ {
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
				raw := b[:i+1]
				if !json.Valid(raw) {
					return nil, 0, false
				}
				return raw, i + 1, true
			}
		}
	}
	return nil, 0, false
}

// goldenCaptures returns the retained NetLog capture of every netlog
// record in the golden campaign's stores, as the store's segment lines
// hold them.
func goldenCaptures(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, crawl := range goldencampaign.Crawls {
		data, err := goldencampaign.Encoded(crawl)
		if err != nil {
			tb.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 64<<20)
		for sc.Scan() {
			if !bytes.HasPrefix(sc.Bytes(), []byte(`{"t":"netlog"`)) {
				continue
			}
			var rec struct {
				NetLog struct {
					Log json.RawMessage `json:"log"`
				} `json:"netlog"`
			}
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				tb.Fatal(err)
			}
			out = append(out, rec.NetLog.Log)
		}
		if err := sc.Err(); err != nil {
			tb.Fatal(err)
		}
	}
	if len(out) == 0 {
		tb.Fatal("golden campaign retained no captures")
	}
	return out
}

// FuzzRawObject holds RawObject to the bracket scan plus json.Valid it
// replaced: on every input the same decision, the same bytes and the
// same cursor, and on an accepted input the bytes json.RawMessage keeps.
func FuzzRawObject(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{ "a" : [ 1 , 2 ] ,` + "\n\t\r" + `"b":{ } }`,
		`{"a":"é 😀"}`,
		`{"a":"\u00e"}`,
		`{"a":"\u00eg"}`,
		`{"a":"\u"}`,
		`{"a":"\/"}`,
		"{\"a\":\"\xff\xfe\"}",
		"{\"a\":\"\x01\"}",
		`{"a":01}`,
		`{"a":-}`,
		`{"a":-0.5e+10}`,
		`{"a":1.}`,
		`{"a":1e}`,
		`{"a":nul}`,
		`{"a":[true,false,null]}`,
		`{"a":1}trailing`,
		`{"a":1} {"b":2}`,
		`{"a":[}`,
		`{"a":"x\"}`,
	} {
		f.Add([]byte(seed))
	}
	// One event of a golden capture: the shape a store restart
	// validates most, small enough to mutate quickly.
	var capture struct {
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(goldenCaptures(f)[0], &capture); err != nil || len(capture.Events) == 0 {
		f.Fatalf("golden capture without events: %v", err)
	}
	f.Add([]byte(capture.Events[0]))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s jsonscan.Scanner
		s.Reset(data)
		got, ok := s.RawObject()
		want, wantPos, wantOK := bracketRawObject(data)
		if ok != wantOK || !bytes.Equal(got, want) || s.Pos() != wantPos {
			t.Fatalf("RawObject(%q) = %q, %t, cursor %d; the bracket scan gives %q, %t, cursor %d",
				data, got, ok, s.Pos(), want, wantOK, wantPos)
		}
		if !ok {
			return
		}
		var raw json.RawMessage
		if err := json.Unmarshal(got, &raw); err != nil {
			t.Fatalf("RawObject(%q) = %q, which encoding/json rejects: %v", data, got, err)
		}
		if !bytes.Equal(raw, got) {
			t.Fatalf("RawObject(%q) = %q, json.RawMessage keeps %q", data, got, raw)
		}
	})
}

// TestRawObjectDepth checks the nesting limit: encoding/json takes
// 10000 levels of arrays and objects and refuses 10001, and so must
// RawObject.
func TestRawObjectDepth(t *testing.T) {
	nested := func(levels int) []byte {
		// One object around levels-1 arrays around a number.
		inner := levels - 1
		return []byte(`{"a":` + strings.Repeat("[", inner) + "1" + strings.Repeat("]", inner) + `}`)
	}
	for _, c := range []struct {
		levels int
		accept bool
	}{
		{1, true},
		{10000, true},
		{10001, false},
	} {
		in := nested(c.levels)
		if json.Valid(in) != c.accept {
			t.Fatalf("json.Valid at %d levels = %t, want %t", c.levels, !c.accept, c.accept)
		}
		var s jsonscan.Scanner
		s.Reset(in)
		_, ok := s.RawObject()
		if ok != c.accept || ok != s.Done() {
			t.Errorf("RawObject at %d levels accepted %t (done %t), want %t", c.levels, ok, s.Done(), c.accept)
		}
	}
	// Objects count as levels as arrays do.
	deep := []byte(strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat(`}`, 10000))
	var s jsonscan.Scanner
	s.Reset(deep)
	if _, ok := s.RawObject(); !ok || !json.Valid(deep) {
		t.Errorf("10000 nested objects: RawObject %t, json.Valid %t; want both true", ok, json.Valid(deep))
	}
	deeper := []byte(`{"b":` + string(deep) + `}`)
	s.Reset(deeper)
	if _, ok := s.RawObject(); ok || json.Valid(deeper) {
		t.Errorf("10001 nested objects: RawObject %t, json.Valid %t; want both false", ok, json.Valid(deeper))
	}
}

// BenchmarkRawObject runs RawObject over every retained capture of the
// golden campaign, the bytes a store restart validates.
func BenchmarkRawObject(b *testing.B) {
	captures := goldenCaptures(b)
	total := 0
	for _, c := range captures {
		total += len(c)
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	var s jsonscan.Scanner
	for n := 0; n < b.N; n++ {
		for _, c := range captures {
			s.Reset(c)
			if _, ok := s.RawObject(); !ok {
				b.Fatal("golden capture rejected")
			}
		}
	}
}
