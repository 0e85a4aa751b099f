package serve

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/knockandtalk/knockandtalk/internal/netlog"
)

// FuzzRequestBody drives arbitrary upload bodies, declared identity or
// gzip, through RequestBody and the NetLog reader, as the ingest handler
// reads them. Nothing may panic, the reader may never see more than the
// bound of decompressed bytes, and every failure must be one the handler
// maps to a status: a body over the bound (413), a bad gzip header, or a
// line-numbered NetLog error (400).
func FuzzRequestBody(f *testing.F) {
	raw, err := os.ReadFile("testdata/threatmetrix.netlog.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	var gz bytes.Buffer
	gw := gzip.NewWriter(&gz)
	if _, err := gw.Write(raw); err != nil {
		f.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(raw, false)
	f.Add(gz.Bytes(), true)
	f.Add(raw, true)

	const bound = 8 << 10
	lineErr := regexp.MustCompile(`^netlog: line [1-9][0-9]*: `)
	f.Fuzz(func(t *testing.T, body []byte, gzipped bool) {
		r := httptest.NewRequest("POST", "/v1/ingest?domain=fuzz.example", bytes.NewReader(body))
		if gzipped {
			r.Header.Set("Content-Encoding", "gzip")
		}
		rd, err := RequestBody(httptest.NewRecorder(), r, bound)
		if err != nil {
			if !gzipped || !strings.HasPrefix(err.Error(), "bad gzip body: ") {
				t.Fatalf("RequestBody: unexpected error %v", err)
			}
			return
		}
		counted := &countingReader{r: rd}
		dec := netlog.NewJSONLReader(counted)
		for {
			_, err = dec.Next()
			if err != nil {
				break
			}
		}
		if counted.n > bound {
			t.Fatalf("reader saw %d decompressed bytes, bound is %d", counted.n, bound)
		}
		var tooBig *http.MaxBytesError
		switch {
		case err == io.EOF, errors.Is(err, ErrBodyTooLarge), errors.As(err, &tooBig):
		case !lineErr.MatchString(err.Error()):
			t.Fatalf("error without a line number: %v", err)
		}
	})
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
