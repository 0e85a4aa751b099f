package netlog

import "github.com/knockandtalk/knockandtalk/internal/jsonscan"

// Test hooks for the external netlog_test package, whose tests build
// real captures through packages that import this one.

// DecodesFast reports whether one JSONL line, without its newline,
// decodes on JSONLReader's fast path.
func DecodesFast(line []byte) bool {
	var ev Event
	return decodeJSONLFast(&jsonscan.Scanner{}, line, &ev)
}
