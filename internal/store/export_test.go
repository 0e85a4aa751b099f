package store

// Test hooks for the external store_test package, whose tests build
// real campaigns through packages that import this one.

// WALMagic is the WAL file header.
const WALMagic = walMagic

// DecodesFast reports whether one Save-format line, without its
// newline, decodes on Load's fast path.
func DecodesFast(line []byte) bool {
	return newRecordDecoder().envelope(line, &walPayload{})
}

// DecodesFastWAL reports whether one WAL frame payload decodes on
// replay's fast path.
func DecodesFastWAL(payload []byte) bool {
	_, ok := newRecordDecoder().frame(payload)
	return ok
}
