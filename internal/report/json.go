package report

import (
	"sort"

	"github.com/knockandtalk/knockandtalk/internal/analysis"
	"github.com/knockandtalk/knockandtalk/internal/classify"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/store"
)

// JSON renderers: the same aggregates the text tables print, shaped for
// machine consumers — the knockserved query plane serves these types
// verbatim. Field order and map keys are deterministic so responses are
// cacheable and diffable.

// JSONVerdict is the wire form of a classify.Verdict.
type JSONVerdict struct {
	Class         string `json:"class"`
	Signature     string `json:"signature"`
	Corroboration string `json:"corroboration,omitempty"`
}

// VerdictJSON converts a classifier verdict to its wire form.
func VerdictJSON(v classify.Verdict) JSONVerdict {
	return JSONVerdict{
		Class:         v.Class.String(),
		Signature:     v.Signature,
		Corroboration: v.Corroboration,
	}
}

// JSONCrawlStats is one Table 1 row in wire form.
type JSONCrawlStats struct {
	Crawl           string `json:"crawl"`
	OS              string `json:"os"`
	Successful      int    `json:"successful"`
	Failed          int    `json:"failed"`
	NameNotResolved int    `json:"name_not_resolved,omitempty"`
	ConnRefused     int    `json:"conn_refused,omitempty"`
	ConnReset       int    `json:"conn_reset,omitempty"`
	CertCNInvalid   int    `json:"cert_cn_invalid,omitempty"`
	Others          int    `json:"others,omitempty"`
}

// JSONCrawlSummary aggregates one crawl: its per-OS load statistics and
// the §4.1 headline numbers (localhost/LAN-active sites, behavior-class
// counts).
type JSONCrawlSummary struct {
	Crawl          string           `json:"crawl"`
	Stats          []JSONCrawlStats `json:"stats"`
	LocalhostSites int              `json:"localhost_sites"`
	LANSites       int              `json:"lan_sites"`
	// Classes counts localhost-active sites per behavior class, keyed by
	// the class label used in the paper's tables.
	Classes map[string]int `json:"classes,omitempty"`
}

// JSONSummary is the corpus-wide summary the /v1/summary endpoint
// serves.
type JSONSummary struct {
	Pages   int                `json:"pages"`
	Locals  int                `json:"locals"`
	NetLogs int                `json:"netlogs"`
	Crawls  []JSONCrawlSummary `json:"crawls"`
	// UnknownOSLabels tallies records whose OS label maps to no known
	// platform; they are excluded from every per-OS aggregate above.
	UnknownOSLabels map[string]int `json:"unknown_os_labels,omitempty"`
}

// SummaryJSON computes the corpus summary from stored telemetry.
func SummaryJSON(st *store.Store) JSONSummary {
	out := JSONSummary{
		Pages:           st.NumPages(),
		Locals:          st.NumLocals(),
		NetLogs:         st.NumNetLogs(),
		UnknownOSLabels: pipeline.IndexFor(st).UnknownOSLabels(),
	}
	// Crawl set: whatever the mounted stores hold — committed campaign
	// crawls and live-ingested ones alike.
	crawlSet := map[string]bool{}
	statRows := analysis.CrawlTable(st)
	for _, r := range statRows {
		crawlSet[string(r.Crawl)] = true
	}
	st.ForEachLocal(func(l *store.LocalRequest) { crawlSet[l.Crawl] = true })
	crawls := make([]string, 0, len(crawlSet))
	for c := range crawlSet {
		crawls = append(crawls, c)
	}
	sort.Strings(crawls)
	for _, crawl := range crawls {
		cs := JSONCrawlSummary{Crawl: crawl}
		for _, r := range statRows {
			if string(r.Crawl) != crawl {
				continue
			}
			cs.Stats = append(cs.Stats, JSONCrawlStats{
				Crawl: string(r.Crawl), OS: r.OS,
				Successful: r.Successful, Failed: r.Failed,
				NameNotResolved: r.NameNotResolved, ConnRefused: r.ConnRefused,
				ConnReset: r.ConnReset, CertCNInvalid: r.CertCNInvalid, Others: r.Others,
			})
		}
		lh := analysis.LocalSites(st, groundtruth.CrawlID(crawl), "localhost")
		lan := analysis.LocalSites(st, groundtruth.CrawlID(crawl), "lan")
		cs.LocalhostSites, cs.LANSites = len(lh), len(lan)
		if counts := analysis.ClassCounts(lh); len(counts) > 0 {
			cs.Classes = make(map[string]int, len(counts))
			for class, n := range counts {
				cs.Classes[class.String()] = n
			}
		}
		out.Crawls = append(out.Crawls, cs)
	}
	return out
}
