package netlog_test

import (
	"bufio"
	"bytes"
	"os"
	"testing"

	"github.com/knockandtalk/knockandtalk/internal/goldencampaign"
	"github.com/knockandtalk/knockandtalk/internal/netlog"
)

// TestGoldenCapturesDecodeFast writes every capture the golden campaign
// retains as JSONL, as an uploader would, and checks that each line, and
// each line of the ingest test capture, decodes on JSONLReader's fast
// path. A change to what WriteJSONL writes that the fast path does not
// follow would still decode correctly through encoding/json, only
// slowly; this test makes that fail instead.
func TestGoldenCapturesDecodeFast(t *testing.T) {
	lines := 0
	checkLines := func(name string, data []byte) {
		t.Helper()
		sc := bufio.NewScanner(bytes.NewReader(data))
		for n := 1; sc.Scan(); n++ {
			lines++
			if !netlog.DecodesFast(sc.Bytes()) {
				t.Errorf("%s line %d falls back to encoding/json: %.200s", name, n, sc.Bytes())
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	st, err := goldencampaign.Merged()
	if err != nil {
		t.Fatal(err)
	}
	captures := 0
	for _, crawl := range goldencampaign.Crawls {
		for _, key := range st.NetLogDomains(string(crawl)) {
			log, ok, err := st.NetLog(string(crawl), key[0], key[1])
			if err != nil || !ok {
				t.Fatalf("%s %v: retained capture unreadable: %v", crawl, key, err)
			}
			var buf bytes.Buffer
			if err := log.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			captures++
			checkLines(string(crawl)+"/"+key[0]+"/"+key[1], buf.Bytes())
		}
	}
	if captures == 0 {
		t.Fatal("golden campaign retained no captures")
	}

	const upload = "../serve/testdata/threatmetrix.netlog.jsonl"
	data, err := os.ReadFile(upload)
	if err != nil {
		t.Fatal(err)
	}
	checkLines(upload, data)
	t.Logf("%d captures, %d lines", captures, lines)
}
