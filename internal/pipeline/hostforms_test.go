package pipeline

import (
	"os"
	"testing"

	"github.com/knockandtalk/knockandtalk/internal/netlog"
)

// hostForms maps each request URL of testdata/hostforms.netlog.jsonl to
// the canonical host its finding must record. Every form names the
// visitor's own machine; the fixture's one other request,
// http://localhost:99999/, has an invalid port and must yield nothing.
var hostForms = map[string]string{
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

// TestProcessHostForms runs the non-canonical host fixture through the
// offline pipeline: each form is one localhost finding on port 5939,
// recorded under its canonical host.
func TestProcessHostForms(t *testing.T) {
	f, err := os.Open("../../testdata/hostforms.netlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := netlog.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	res := Process(log, Visit{Crawl: "live-test", OS: "Windows", Domain: "forms.example"}, Options{})
	if len(res.Locals) != len(hostForms) || len(res.Localhost) != len(hostForms) {
		t.Fatalf("%d locals (%d localhost), want %d localhost findings", len(res.Locals), len(res.Localhost), len(hostForms))
	}
	for _, l := range res.Locals {
		if want, ok := hostForms[l.URL]; !ok || l.Host != want || l.Dest != "localhost" || l.Port != 5939 {
			t.Errorf("%s: host %q dest %s port %d, want %q localhost 5939", l.URL, l.Host, l.Dest, l.Port, want)
		}
	}
}
