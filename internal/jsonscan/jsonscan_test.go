package jsonscan

import (
	"bytes"
	"encoding/json"
	"testing"
)

// A case is one input and whether the primitive must accept all of it.
// Inputs it rejects are left to encoding/json by the callers, so a
// rejection is always safe; an acceptance must decode exactly what
// encoding/json decodes.
type scanCase struct {
	in     string
	accept bool
}

// marshaled is json.Marshal's rendering of s, escapes included.
func marshaled(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func TestStr(t *testing.T) {
	for _, c := range []scanCase{
		{`"plain"`, true},
		{`""`, true},
		{marshaled("a&b<c>d"), true},         // & < >
		{marshaled("x\u2028y\u2029z"), true}, // U+2028, U+2029
		{marshaled("q\"b\\n\nr\rt\t"), true},
		{`"\/\b\f"`, true},
		{`"café ☃"`, true},
		{`"\ud83d\ude00"`, false}, // surrogate pair: encoding/json joins it
		{`"\ud800"`, false},       // lone surrogate: encoding/json writes U+FFFD
		{`"\udc00x"`, false},
		{"\"\xff\"", false}, // invalid UTF-8
		{"\"a\x01\"", false},
		{`"\x41"`, false},
		{`"\u00e"`, false},
		{`"abc`, false},
		{`"abc\`, false}, // trailing backslash
		{`"abc\"`, false},
		{`abc`, false},
	} {
		var s Scanner
		s.Reset([]byte(c.in))
		got, ok := s.Str()
		accepted := ok && s.Done()
		if accepted != c.accept {
			t.Errorf("Str(%s) accepted %t, want %t", c.in, accepted, c.accept)
		}
		if !accepted {
			continue
		}
		var want string
		if err := json.Unmarshal([]byte(c.in), &want); err != nil {
			t.Errorf("Str(%s) accepted input encoding/json rejects: %v", c.in, err)
		} else if string(got) != want {
			t.Errorf("Str(%s) = %q, encoding/json decodes %q", c.in, got, want)
		}
	}
}

func TestDigits(t *testing.T) {
	for _, c := range []scanCase{
		{"0", true},
		{"7", true},
		{"1234567890123456789", true}, // 19 digits
		{"9999999999999999999", true},
		{"12345678901234567890", false}, // 20 digits
		{"18446744073709551615", false},
		{"01", false}, // leading zero
		{"00", false},
		{"", false},
		{"-1", false},
		{"1.5", false},
		{"1e3", false},
	} {
		var s Scanner
		s.Reset([]byte(c.in))
		got, ok := s.Digits()
		accepted := ok && s.Done()
		if accepted != c.accept {
			t.Errorf("Digits(%s) accepted %t, want %t", c.in, accepted, c.accept)
		}
		if !accepted {
			continue
		}
		var want uint64
		if err := json.Unmarshal([]byte(c.in), &want); err != nil {
			t.Errorf("Digits(%s) accepted input encoding/json rejects: %v", c.in, err)
		} else if got != want {
			t.Errorf("Digits(%s) = %d, encoding/json decodes %d", c.in, got, want)
		}
	}
}

func TestInt64(t *testing.T) {
	for _, c := range []scanCase{
		{"0", true},
		{"-1", true},
		{"42", true},
		{"9223372036854775807", true},   // MaxInt64
		{"-9223372036854775807", true},  // -MaxInt64
		{"-9223372036854775808", false}, // MinInt64: its magnitude overflows, left to encoding/json
		{"9223372036854775808", false},
		{"-0", false},
		{"-", false},
		{"--1", false},
		{"-01", false},
		{"+1", false},
		{"", false},
	} {
		var s Scanner
		s.Reset([]byte(c.in))
		got, ok := s.Int64()
		accepted := ok && s.Done()
		if accepted != c.accept {
			t.Errorf("Int64(%s) accepted %t, want %t", c.in, accepted, c.accept)
		}
		if !accepted {
			continue
		}
		var want int64
		if err := json.Unmarshal([]byte(c.in), &want); err != nil {
			t.Errorf("Int64(%s) accepted input encoding/json rejects: %v", c.in, err)
		} else if got != want {
			t.Errorf("Int64(%s) = %d, encoding/json decodes %d", c.in, got, want)
		}
	}
}

func TestRawObject(t *testing.T) {
	for _, c := range []scanCase{
		{`{}`, true},
		{`{"a":1}`, true},
		{`{"a":"}"}`, true},
		{`{"a":"{"}`, true},
		{`{"a":"\"}"}`, true}, // escaped quote inside a string
		{`{"a":"\\"}`, true},  // escaped backslash before the closing quote
		{`{"a":{"b":[1,{"c":"]"}]},"d":null}`, true},
		{`{"a":"x\`, false}, // trailing backslash
		{`{"a":"x\"}`, false},
		{`{"a":1`, false},
		{`{"a":1]`, false},
		{`{"a":}`, false},
		{`{"a" 1}`, false},
		{`[1]`, false},
		{``, false},
	} {
		var s Scanner
		s.Reset([]byte(c.in))
		got, ok := s.RawObject()
		accepted := ok && s.Done()
		if accepted != c.accept {
			t.Errorf("RawObject(%s) accepted %t, want %t", c.in, accepted, c.accept)
		}
		if !ok {
			continue
		}
		var want json.RawMessage
		if err := json.Unmarshal(got, &want); err != nil {
			t.Errorf("RawObject(%s) = %s, which encoding/json rejects: %v", c.in, got, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("RawObject(%s) = %s, encoding/json reads %s", c.in, got, want)
		}
	}
}

// TestRawObjectStopsAtItsEnd checks that the cursor stops right after
// the object's closing brace, so a caller reads what follows.
func TestRawObjectStopsAtItsEnd(t *testing.T) {
	var s Scanner
	s.Reset([]byte(`{"a":"}"},"b":1}`))
	got, ok := s.RawObject()
	if !ok || string(got) != `{"a":"}"}` || !s.Next(',') {
		t.Fatalf("RawObject = %s, %t; want the first object with the cursor on the comma", got, ok)
	}
}
