package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"testing"
)

// TestIngestHostForms uploads the non-canonical host fixture through
// /v1/ingest: as in the offline pipeline, each form is one localhost
// detection under its canonical host, and http://localhost:99999/, whose
// port is invalid, yields none.
func TestIngestHostForms(t *testing.T) {
	want := map[string]string{
		"http://LOCALHOST:5939/":          "localhost",
		"http://localhost.:5939/":         "localhost",
		"http://FOO.LOCALHOST.:5939/":     "foo.localhost",
		"http://127.1:5939/":              "127.0.0.1",
		"http://2130706433:5939/":         "127.0.0.1",
		"http://0x7f.0.0.1:5939/":         "127.0.0.1",
		"http://017700000001:5939/":       "127.0.0.1",
		"http://0.0.0.0:5939/":            "0.0.0.0",
		"http://[::]:5939/":               "::",
		"http://[::ffff:127.0.0.1]:5939/": "::ffff:127.0.0.1",
	}
	_, ts := newTestServer(t, Options{})
	body, err := os.ReadFile("../../testdata/hostforms.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/ingest?domain=forms.example&os=Windows", "application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, b)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.Detections) != len(want) {
		t.Fatalf("%d detections, want %d", len(ir.Detections), len(want))
	}
	for _, d := range ir.Detections {
		if host, ok := want[d.URL]; !ok || d.Host != host || d.Dest != "localhost" || d.Port != 5939 {
			t.Errorf("%s: host %q dest %s port %d, want %q localhost 5939", d.URL, d.Host, d.Dest, d.Port, host)
		}
	}
}
