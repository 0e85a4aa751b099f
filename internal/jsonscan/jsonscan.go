// Package jsonscan is the tree's one hand-written JSON scanner: the
// token primitives of the reflection-free fast paths that read back what
// encoding/json wrote. The store decodes its segment lines and WAL
// frames with it, and the NetLog JSONL reader its event lines.
//
// A Scanner accepts only the compact bytes json.Marshal produces:
//
//   - no whitespace between tokens;
//   - object keys without escapes;
//   - strings with the escapes json.Marshal writes (\" \\ \n \r \t and
//     \uXXXX outside the surrogate range, such as its HTML-safe escape
//     of '&'), holding valid UTF-8;
//   - integers without fraction, exponent, leading zero or "-0", of at
//     most 19 digits;
//   - true and false.
//
// Every primitive reports false for any other byte, and the caller then
// hands the input to encoding/json, which keeps defining the format. A
// fast path built from these primitives therefore only ever returns what
// encoding/json would, as long as its caller's shape checks hold too.
package jsonscan

import (
	"encoding/json"
	"math"
	"unicode/utf16"
	"unicode/utf8"
)

// Scanner decodes tokens from one input at a cursor. It is not safe for
// concurrent use. The zero value is ready after Reset.
type Scanner struct {
	b   []byte // input being decoded
	i   int    // cursor into b
	esc []byte // unescaping scratch
}

// Reset starts decoding b from its first byte.
func (s *Scanner) Reset(b []byte) { s.b, s.i = b, 0 }

// Done reports whether the whole input has been consumed.
func (s *Scanner) Done() bool { return s.i == len(s.b) }

// Next consumes c if it is the byte at the cursor.
func (s *Scanner) Next(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// Lit consumes lit if the input continues with it.
func (s *Scanner) Lit(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// Object decodes one JSON object. field decodes the member value at the
// cursor and returns its key's ordinal. Ordinals must rise strictly, as
// in encoding/json's output of a struct or a map; that also rules out a
// repeated key, which encoding/json would merge or overwrite.
func (s *Scanner) Object(field func(key []byte) (int, bool)) bool {
	if !s.Next('{') {
		return false
	}
	if s.Next('}') {
		return true
	}
	last := -1
	for {
		key, ok := s.Key()
		if !ok {
			return false
		}
		ord, ok := field(key)
		if !ok || ord <= last {
			return false
		}
		last = ord
		if s.Next('}') {
			return true
		}
		if !s.Next(',') {
			return false
		}
	}
}

// Array decodes a non-empty JSON array, calling elem at each element.
// An empty array, which decodes to a non-nil empty slice and which
// omitempty never writes, is left to encoding/json.
func (s *Scanner) Array(elem func() bool) bool {
	if !s.Next('[') {
		return false
	}
	for {
		if !elem() {
			return false
		}
		if s.Next(']') {
			return true
		}
		if !s.Next(',') {
			return false
		}
	}
}

// Key decodes an unescaped object key and the colon after it. The bytes
// alias the input.
func (s *Scanner) Key() ([]byte, bool) {
	b := s.b
	if s.i >= len(b) || b[s.i] != '"' {
		return nil, false
	}
	start := s.i + 1
	for i := start; i < len(b); i++ {
		switch b[i] {
		case '"':
			if i+1 < len(b) && b[i+1] == ':' {
				s.i = i + 2
				return b[start:i], true
			}
			return nil, false
		case '\\':
			return nil, false
		}
	}
	return nil, false
}

// Str decodes a string value and returns its unescaped bytes. They alias
// the input or the scanner's scratch buffer, so they are valid only
// until the next call; convert them with string() to keep them.
func (s *Scanner) Str() ([]byte, bool) {
	b := s.b
	if s.i >= len(b) || b[s.i] != '"' {
		return nil, false
	}
	start := s.i + 1
	ascii := true
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			raw := b[start:i]
			if !ascii && !utf8.Valid(raw) {
				return nil, false
			}
			s.i = i + 1
			return raw, true
		case c == '\\':
			return s.escaped(start)
		case c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// escaped decodes a string that contains a backslash, from the byte
// after its opening quote, unescaping into the scratch buffer. Bytes
// outside escapes must be valid UTF-8, which holds exactly when the
// unescaped result is: an escape always yields whole UTF-8 sequences.
func (s *Scanner) escaped(start int) ([]byte, bool) {
	b := s.b
	out := s.esc[:0]
	ascii := true
	for i := start; i < len(b); i++ {
		c := b[i]
		switch {
		case c == '"':
			s.esc = out
			if !ascii && !utf8.Valid(out) {
				return nil, false
			}
			s.i = i + 1
			return out, true
		case c == '\\':
			i++
			if i == len(b) {
				return nil, false
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
					return nil, false
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				return nil, false
			}
		case c < 0x20:
			return nil, false
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			out = append(out, c)
		}
	}
	return nil, false
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

// Digits decodes an unsigned integer literal. Past 19 digits it gives
// up, leaving range errors to encoding/json.
func (s *Scanner) Digits() (uint64, bool) {
	b := s.b
	start := s.i
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
	s.i = i
	return n, true
}

// Int64 decodes an integer literal that fits an int64. It rejects "-0",
// which encoding/json never writes for an integer and decodes to a
// negative zero when the destination is a float64 or an interface.
func (s *Scanner) Int64() (int64, bool) {
	neg := s.Next('-')
	n, ok := s.Digits()
	if !ok || n > math.MaxInt64 || (neg && n == 0) {
		return 0, false
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// Int decodes an integer literal that fits an int.
func (s *Scanner) Int() (int, bool) {
	n, ok := s.Int64()
	if !ok || int64(int(n)) != n {
		return 0, false
	}
	return int(n), true
}

// Bool decodes true or false.
func (s *Scanner) Bool() (v, ok bool) {
	switch {
	case s.Lit("true"):
		return true, true
	case s.Lit("false"):
		return false, true
	}
	return false, false
}

// RawObject returns the JSON object at the cursor verbatim. A bracket
// scan that skips strings finds where it ends, and one json.Valid pass
// over exactly that range checks it: a range that starts with '{', ends
// with its matching '}' and is valid JSON is the one value encoding/json
// would have taken. The bytes alias the input.
func (s *Scanner) RawObject() ([]byte, bool) {
	b := s.b
	start := s.i
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
				s.i = i + 1
				return raw, true
			}
		}
	}
	return nil, false
}
