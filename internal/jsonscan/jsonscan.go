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
//
// RawObject is the one primitive that takes any valid JSON: it walks an
// object through the whole JSON grammar once, finding its end and
// checking it in the same pass, and keeps the bytes verbatim as
// json.RawMessage would.
package jsonscan

import (
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

// RawObject returns the JSON object at the cursor verbatim, with the
// cursor after its closing brace. One recursive-descent pass over the
// JSON grammar finds where the object ends and checks it, accepting
// exactly what json.Valid accepts over that range: whitespace between
// tokens, every escape, the full number grammar, true, false and null,
// and arrays and objects nested up to encoding/json's limit of
// maxDepth levels. Like json.Valid it leaves invalid UTF-8 inside
// strings alone, as json.RawMessage keeps it. The bytes alias the
// input.
func (s *Scanner) RawObject() ([]byte, bool) {
	b := s.b
	start := s.i
	if start >= len(b) || b[start] != '{' {
		return nil, false
	}
	end := object(b, start, 1)
	if end < 0 {
		return nil, false
	}
	s.i = end
	return b[start:end], true
}

// maxDepth is encoding/json's nesting limit: it rejects arrays and
// objects nested more than this many levels deep.
const maxDepth = 10000

// The validator's functions each take the input and the offset of the
// token they check, and return the offset just past it, or -1 if the
// bytes there are not that token. depth counts the arrays and objects
// open around the token, itself included.

// value checks one JSON value.
func value(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch c := b[i]; {
	case c == '"':
		return str(b, i)
	case c == '{':
		return object(b, i, depth+1)
	case c == '[':
		return array(b, i, depth+1)
	case c == '-' || '0' <= c && c <= '9':
		return number(b, i)
	case c == 't':
		return literal(b, i, "true")
	case c == 'f':
		return literal(b, i, "false")
	case c == 'n':
		return literal(b, i, "null")
	}
	return -1
}

// object checks an object whose '{' is at b[i].
func object(b []byte, i, depth int) int {
	if depth > maxDepth {
		return -1
	}
	i = space(b, i+1)
	if i < len(b) && b[i] == '}' {
		return i + 1
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return -1
		}
		if i = str(b, i); i < 0 {
			return -1
		}
		if i = space(b, i); i >= len(b) || b[i] != ':' {
			return -1
		}
		if i = value(b, space(b, i+1), depth); i < 0 {
			return -1
		}
		if i = space(b, i); i >= len(b) {
			return -1
		}
		switch b[i] {
		case '}':
			return i + 1
		case ',':
			i = space(b, i+1)
		default:
			return -1
		}
	}
}

// array checks an array whose '[' is at b[i].
func array(b []byte, i, depth int) int {
	if depth > maxDepth {
		return -1
	}
	i = space(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1
	}
	for {
		if i = value(b, i, depth); i < 0 {
			return -1
		}
		if i = space(b, i); i >= len(b) {
			return -1
		}
		switch b[i] {
		case ']':
			return i + 1
		case ',':
			i = space(b, i+1)
		default:
			return -1
		}
	}
}

// plain marks the bytes a string holds without an escape: everything
// but '"', '\\' and the control bytes below 0x20.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str checks a string whose opening quote is at b[i].
func str(b []byte, i int) int {
	for i++; i < len(b); i++ {
		if plain[b[i]] {
			continue
		}
		switch b[i] {
		case '"':
			return i + 1
		case '\\':
			if i++; i == len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if _, ok := hex4(b[i+1:]); !ok {
					return -1
				}
				i += 4
			default:
				return -1
			}
		default: // a control byte
			return -1
		}
	}
	return -1
}

// number checks a number: an optional minus, an integer part without a
// leading zero, an optional fraction and an optional exponent.
func number(b []byte, i int) int {
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i] < '0' || b[i] > '9' {
			return -1
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			return -1
		}
		i = digits(b, i)
	}
	return i
}

// digits skips the decimal digits from b[i].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// literal checks that b continues at i with lit.
func literal(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// space skips JSON whitespace from b[i].
func space(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}
