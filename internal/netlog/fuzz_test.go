package netlog

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// FuzzParseJSON hardens the NetLog reader: arbitrary input must never
// panic, and anything it accepts must re-serialize and re-parse to the
// same event stream. As in FuzzReadJSONL, the params encoding/json
// decodes into a map[string]any are the oracle: the accessors read what
// the map holds, and an accepted log re-encodes to the bytes the map
// rendering gives.
func FuzzParseJSON(f *testing.F) {
	r := NewRecorder()
	src := r.NewSource(SourceURLRequest)
	r.Begin(time.Millisecond, TypeRequestAlive, src, Params{}.WithURL("wss://localhost:5939/"))
	r.Point(2*time.Millisecond, TypeURLRequestError, src, Params{}.WithNetError("ERR_CONNECTION_REFUSED"))
	var buf bytes.Buffer
	if err := r.Log().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"constants":{},"events":[]}`)
	f.Add(`{"constants":{"logEventTypes":{"REQUEST_ALIVE":1},"logSourceType":{"URL_REQUEST":1},"logEventPhase":{}},"events":[{"phase":1,"source":{"id":1,"type":1},"time":"9","type":1}]}`)
	f.Add(`not json at all`)
	f.Add(`{"events":[{"time":"99999999999999999999"}]}`)
	f.Add(`{"constants":{"logEventTypes":{"REQUEST_ALIVE":1},"logSourceType":{"URL_REQUEST":1},"logEventPhase":{}},"events":[{"phase":1,"source":{"id":1,"type":1},"time":"9","type":1,"params":{"url":"http://a/?b&c<d>","status_code":2e2,"z":[{}],"initiator":""}}]}`)
	f.Add(`{"constants":{"logEventTypes":{"REQUEST_ALIVE":1},"logSourceType":{"URL_REQUEST":1},"logEventPhase":{}},"events":[{"phase":1,"source":{"id":1,"type":1},"time":"9","type":1,"params":{"bytes":1e400}}]}`)

	f.Fuzz(func(t *testing.T, input string) {
		log, err := ParseJSON(strings.NewReader(input))
		if err != nil {
			return
		}
		var mapDoc jsonLog
		if err := json.NewDecoder(strings.NewReader(input)).Decode(&mapDoc); err != nil {
			t.Fatalf("accepted document does not decode: %v", err)
		}
		maps := make([]map[string]any, len(mapDoc.Events))
		for i := range mapDoc.Events {
			maps[i] = mapDoc.Events[i].Params
			checkAccessorsLikeMap(t, &log.Events[i], maps[i])
		}
		var out bytes.Buffer
		if err := log.WriteJSON(&out); err != nil {
			// Accepted logs may contain event types from the input's own
			// constants table that our writer does not register; that is
			// the only legitimate write failure.
			if !strings.Contains(err.Error(), "unregistered event type") {
				t.Fatalf("re-serialize failed: %v", err)
			}
			return
		}
		if want := mapExport(t, log, maps); out.String() != want {
			t.Fatalf("typed re-encode differs from map re-encode\n got %s\nwant %s", out.String(), want)
		}
		back, err := ParseJSON(&out)
		if err != nil {
			t.Fatalf("round trip re-parse failed: %v", err)
		}
		if back.Len() != log.Len() {
			t.Fatalf("round trip changed event count: %d != %d", back.Len(), log.Len())
		}
	})
}
