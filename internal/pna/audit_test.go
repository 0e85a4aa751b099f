package pna

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/knockandtalk/knockandtalk/internal/analysis"
	"github.com/knockandtalk/knockandtalk/internal/classify"
	"github.com/knockandtalk/knockandtalk/internal/goldencampaign"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/store"
)

// snapshotAudit is the Audit that read page security from a snapshot of
// every page of the crawl, kept as the reference the index-backed Audit
// must match.
func snapshotAudit(st *store.Store, crawl groundtruth.CrawlID, policy Policy) []AuditRow {
	secure := map[[2]string]bool{}
	for _, p := range st.Pages(func(p *store.PageRecord) bool { return p.Crawl == string(crawl) }) {
		secure[[2]string{p.OS, p.Domain}] = strings.HasPrefix(p.URL, "https://")
	}
	rows := map[groundtruth.Class]*AuditRow{}
	for _, dest := range []string{"localhost", "lan"} {
		for _, site := range analysis.LocalSites(st, crawl, dest) {
			var verdict classify.Verdict = site.Verdict
			row := rows[verdict.Class]
			if row == nil {
				row = &AuditRow{Class: verdict.Class}
				rows[verdict.Class] = row
			}
			row.Sites++
			optIn := verdict.Class == groundtruth.ClassNativeApp
			for _, req := range site.Requests {
				row.Requests++
				d := policy.Evaluate(secure[[2]string{req.OS, req.Domain}], optIn)
				switch {
				case d.Allowed:
					row.Allowed++
				case d.Reason == "insecure-context":
					row.BlockedInsecure++
				default:
					row.BlockedNoOptIn++
				}
			}
		}
	}
	out := make([]AuditRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// policies are the full draft and each requirement on its own.
var policies = []Policy{
	WICGDraft,
	{RequireSecureContext: true},
	{RequirePreflight: true},
	{},
}

func TestAuditMatchesSnapshotOnGoldenCampaign(t *testing.T) {
	st, err := goldencampaign.Merged()
	if err != nil {
		t.Fatal(err)
	}
	for _, crawl := range goldencampaign.Crawls {
		for _, policy := range policies {
			got, want := Audit(st, crawl, policy), snapshotAudit(st, crawl, policy)
			if len(want) == 0 {
				t.Fatalf("%s: the golden crawl audits no local traffic", crawl)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %+v:\n got %+v\nwant %+v", crawl, policy, got, want)
			}
		}
	}
}

func TestAuditPageLookupEdges(t *testing.T) {
	const crawl = groundtruth.CrawlTop2020
	type page struct {
		crawl groundtruth.CrawlID
		os    string
		url   string
	}
	for _, c := range []struct {
		name   string
		pages  []page
		secure bool // whether the Windows request's page is secure
	}{
		{"one secure page", []page{{crawl, "Windows", "https://faceit.com/"}}, true},
		{"last page insecure", []page{{crawl, "Windows", "https://faceit.com/"}, {crawl, "Windows", "http://faceit.com/"}}, false},
		{"last page secure", []page{{crawl, "Windows", "http://faceit.com/"}, {crawl, "Windows", "https://faceit.com/"}}, true},
		{"page on another OS only", []page{{crawl, "Linux", "https://faceit.com/"}}, false},
		{"page in another crawl only", []page{{groundtruth.CrawlTop2021, "Windows", "https://faceit.com/"}}, false},
		{"no page", nil, false},
	} {
		st := store.New()
		for _, p := range c.pages {
			st.AddPage(store.PageRecord{Crawl: string(p.crawl), OS: p.os, Domain: "faceit.com", URL: p.url})
		}
		st.AddLocal(store.LocalRequest{
			Crawl: string(crawl), OS: "Windows", Domain: "faceit.com",
			URL: "ws://localhost:28337/", Scheme: "ws", Host: "localhost", Port: 28337, Path: "/", Dest: "localhost",
		})
		for _, policy := range policies {
			got, want := Audit(st, crawl, policy), snapshotAudit(st, crawl, policy)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %+v:\n got %+v\nwant %+v", c.name, policy, got, want)
			}
		}
		rows := Audit(st, crawl, Policy{RequireSecureContext: true})
		if len(rows) != 1 || rows[0].Requests != 1 || (rows[0].Allowed == 1) != c.secure {
			t.Errorf("%s: secure-context audit %+v, want the request allowed=%t", c.name, rows, c.secure)
		}
	}
}
