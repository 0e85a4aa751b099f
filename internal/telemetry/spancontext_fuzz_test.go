package telemetry

import (
	"strings"
	"testing"
)

// FuzzTraceparent feeds arbitrary strings to ParseTraceparent, which
// every HTTP server and fleet worker runs on the traceparent header it
// receives. No input may panic. An accepted value must carry non-zero
// IDs spelled in lowercase hex at their wire positions and a version
// other than ff, and the context it yields must re-parse from its own
// rendering to the same IDs.
func FuzzTraceparent(f *testing.F) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	for _, seed := range []string{
		valid,
		strings.Replace(valid, "00-", "ff-", 1),
		"00-00000000000000000000000000000000-0000000000000000-00",
		strings.ToUpper(valid),
		valid[:54],
		"",
		strings.Replace(valid, "00-", "01-", 1) + "-future",
		strings.Replace(valid, "00-", "cc-", 1),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q with a zero ID: %+v", s, sc)
		}
		if s[:2] == "ff" || !isLowerHex(s[:2]) {
			t.Fatalf("accepted %q with version %q", s, s[:2])
		}
		if s[3:35] != sc.TraceID.String() || s[36:52] != sc.SpanID.String() {
			t.Fatalf("accepted %q as trace %s span %s, not its lowercase-hex fields", s, sc.TraceID, sc.SpanID)
		}
		back, ok := ParseTraceparent(sc.Traceparent())
		if !ok || back.TraceID != sc.TraceID || back.SpanID != sc.SpanID {
			t.Fatalf("%q: rendering %q re-parses to %+v, %t", s, sc.Traceparent(), back, ok)
		}
	})
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if _, ok := hexVal(s[i]); !ok {
			return false
		}
	}
	return true
}
