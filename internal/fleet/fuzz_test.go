package fleet

import (
	"bytes"
	"compress/gzip"
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/store"
)

// FuzzCompleteUpload drives the shard-upload merge, the coordinator's
// network-facing input, with arbitrary plain or gzip bodies and query
// strings against a coordinator holding one granted lease. Every answer
// is 200 or 4xx, and a 4xx merges nothing and journals nothing.
func FuzzCompleteUpload(f *testing.F) {
	dir := f.TempDir()
	cfg := goldenConfig(f, dir)
	cfg.Crawls = cfg.Crawls[:1]
	cfg.TTL = time.Hour
	c, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { c.Close() })
	ts := httptest.NewServer(c.Handler())
	f.Cleanup(ts.Close)
	lease, _, _, err := (&Client{Base: ts.URL, Worker: "fuzz"}).Acquire(context.Background())
	if err != nil || lease == nil {
		f.Fatalf("acquire: %v %v", lease, err)
	}

	shard := store.New()
	shard.AddRecords([]store.PageRecord{{Crawl: lease.Crawl, OS: lease.OS, Domain: "fuzz.example", URL: "http://fuzz.example/"}},
		[]store.LocalRequest{{Crawl: lease.Crawl, OS: lease.OS, Domain: "fuzz.example", URL: "ws://localhost:5939/",
			Scheme: "ws", Host: "localhost", Port: 5939, Path: "/", Dest: "localhost"}}, nil)
	var valid bytes.Buffer
	if err := shard.Save(&valid); err != nil {
		f.Fatal(err)
	}
	q := url.Values{"lease": {lease.ID}, "worker": {"fuzz"}, "attempted": {"1"}}.Encode()
	f.Add(valid.Bytes(), q, byte(0))
	f.Add(valid.Bytes(), q, byte(1))
	f.Add(valid.Bytes(), "lease=nope&worker=fuzz", byte(0))
	f.Add([]byte("{\"crawl\":"), q, byte(0))
	f.Add([]byte("not gzip"), q, byte(2))
	f.Add([]byte{}, "", byte(0))

	counts := func() (pages, locals int, seq uint64) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, st := range c.stores {
			pages += st.NumPages()
			locals += st.NumLocals()
		}
		return pages, locals, c.journal.nextSeq
	}
	f.Fuzz(func(t *testing.T, body []byte, query string, mode byte) {
		// mode 1 compresses the body; mode 2 claims gzip for raw bytes.
		if mode%3 == 1 {
			var zb bytes.Buffer
			zw := gzip.NewWriter(&zb)
			zw.Write(body)
			zw.Close()
			body = zb.Bytes()
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/lease/complete", bytes.NewReader(body))
		req.URL.RawQuery = query
		if mode%3 != 0 {
			req.Header.Set("Content-Encoding", "gzip")
		}
		pages, locals, seq := counts()
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, req)
		switch code := rec.Code; {
		case code == http.StatusOK:
		case code >= 400 && code < 500:
			if p, l, s := counts(); p != pages || l != locals || s != seq {
				t.Fatalf("%d answer changed pages %d->%d, locals %d->%d, journal %d->%d",
					code, pages, p, locals, l, seq, s)
			}
		default:
			t.Fatalf("status %d: %s", code, rec.Body)
		}
	})
}
