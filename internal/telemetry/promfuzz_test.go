package telemetry

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
)

// FuzzParsePrometheus feeds arbitrary bytes to the exposition parser,
// which knockload runs over scrapes it reads from the network. Every
// input must yield a document or an error, never a panic. Every
// histogram family of an accepted document must rebuild or error, and
// a rebuilt instance never holds more bucketed samples than its _count.
// The seeds are registry renders, and each must rebuild to exactly the
// registry's own HistogramFamily.
func FuzzParsePrometheus(f *testing.F) {
	full := NewRegistry()
	full.Counter("serve_requests_total", "path", "/v1/summary").Add(3)
	full.Gauge("serve_inflight", "plane", "query").Set(2)
	h := full.Histogram("serve_query_ns", "endpoint", "/v1/summary", "cache", "hit")
	for _, v := range []uint64{0, 1, 700, 1 << 20} {
		h.Observe(v)
	}
	h.ObserveExemplar(900, "4bf92f3577b34da6a3ce929d0e0e4736")
	full.Histogram("serve_query_ns", "endpoint", "/v1/site/{domain}", "cache", "miss").ObserveExemplar(1<<40, "00f067aa0ba902b7")
	full.Histogram("serve_ingest_ns").Observe(12345)
	full.Histogram("idle_ns")

	for _, reg := range []*Registry{full, NewRegistry()} {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			f.Fatal(err)
		}
		doc, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
		if err != nil {
			f.Fatalf("seed does not parse: %v\n%s", err, buf.String())
		}
		for _, name := range []string{"serve_query_ns", "serve_ingest_ns", "idle_ns"} {
			got, err := doc.Histograms(name)
			if err != nil {
				f.Fatalf("seed %s does not rebuild: %v", name, err)
			}
			if want := reg.HistogramFamily(name); !reflect.DeepEqual(sortedHists(got), sortedHists(want)) {
				f.Fatalf("%s rebuilt as %+v, registry holds %+v", name, got, want)
			}
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"0.5\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 0.25\nh_count 1\n"))
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"1\"} 1e3 # {trace_id=\"x\"} 1\nh_bucket{le=\"+Inf\"} 1e3\nh_sum 1\nh_count 1e3\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ParsePrometheus(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, name := range doc.Names {
			hists, err := doc.Histograms(name)
			if err != nil {
				continue
			}
			for _, lh := range hists {
				var n uint64
				for _, b := range lh.Hist.Buckets {
					n += b.N
				}
				if n > lh.Hist.Count {
					t.Fatalf("%s%v: %d bucketed samples exceed _count %d", name, lh.Labels, n, lh.Hist.Count)
				}
			}
		}
	})
}

// sortedHists orders a histogram family by canonical label string, since
// HistogramFamily's order is unspecified.
func sortedHists(hs []LabeledHistogram) []LabeledHistogram {
	out := append([]LabeledHistogram(nil), hs...)
	sort.Slice(out, func(i, j int) bool {
		return promCanonicalLabels(out[i].Labels, "") < promCanonicalLabels(out[j].Labels, "")
	})
	return out
}
