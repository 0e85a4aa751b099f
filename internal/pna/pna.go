// Package pna implements the defense discussed in §5.3: the WICG
// Private Network Access proposal (draft, March 2021), under which a
// resource loaded from public IP space may fetch from private/local IP
// space only if (1) the public resource was loaded over a secure channel
// and (2) a CORS preflight to the local-network origin succeeds, carrying
// Access-Control-Request-Private-Network: true and answered with
// Access-Control-Allow-Private-Network: true.
//
// The package provides both the mechanics (preflight exchange against a
// simnet service) and a policy auditor that replays a crawl's observed
// local traffic under the proposal, reporting what would be blocked and
// which legitimate use cases survive.
package pna

import (
	"sort"
	"strings"

	"github.com/knockandtalk/knockandtalk/internal/analysis"
	"github.com/knockandtalk/knockandtalk/internal/classify"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/pipeline"
	"github.com/knockandtalk/knockandtalk/internal/simnet"
	"github.com/knockandtalk/knockandtalk/internal/store"
)

// Headers of the proposal.
const (
	RequestHeader = "Access-Control-Request-Private-Network"
	AllowHeader   = "Access-Control-Allow-Private-Network"
)

// Policy is a configurable variant of the proposal, so ablations can
// evaluate the two requirements independently.
type Policy struct {
	// RequireSecureContext blocks local fetches from pages not loaded
	// over https/wss.
	RequireSecureContext bool
	// RequirePreflight blocks local fetches whose target did not
	// affirmatively opt in via the preflight exchange.
	RequirePreflight bool
}

// WICGDraft is the full proposal.
var WICGDraft = Policy{RequireSecureContext: true, RequirePreflight: true}

// Decision is the policy outcome for one request.
type Decision struct {
	Allowed bool
	// Reason explains a block: "insecure-context" or "no-opt-in".
	Reason string
}

// Evaluate applies the policy to one observed local request.
// pageSecure is whether the requesting page was loaded over a secure
// channel; serverOptsIn whether the local target answers the preflight
// affirmatively.
func (p Policy) Evaluate(pageSecure, serverOptsIn bool) Decision {
	if p.RequireSecureContext && !pageSecure {
		return Decision{Reason: "insecure-context"}
	}
	if p.RequirePreflight && !serverOptsIn {
		return Decision{Reason: "no-opt-in"}
	}
	return Decision{Allowed: true}
}

// Preflight performs the CORS preflight exchange against a local
// service, returning whether it opted in.
func Preflight(svc simnet.Service, req *simnet.Request) bool {
	if svc == nil {
		return false
	}
	pf := *req
	pf.Method = "OPTIONS"
	pf.Preflight = true
	if pf.Header == nil {
		pf.Header = map[string]string{}
	}
	pf.Header[RequestHeader] = "true"
	resp := svc.Serve(&pf)
	return resp != nil && resp.Header != nil && strings.EqualFold(resp.Header[AllowHeader], "true")
}

// OptIn wraps a service so that it answers Private Network Access
// preflights affirmatively — what a native application adopting the
// proposal would ship.
func OptIn(svc simnet.Service) simnet.Service {
	return simnet.ServiceFunc(func(req *simnet.Request) *simnet.Response {
		if req.Preflight {
			return &simnet.Response{Status: 204, Header: map[string]string{AllowHeader: "true"}}
		}
		return svc.Serve(req)
	})
}

// AuditRow summarizes the policy outcome for one behavior class.
type AuditRow struct {
	Class           groundtruth.Class
	Sites           int
	Requests        int
	Allowed         int
	BlockedInsecure int
	BlockedNoOptIn  int
}

// Blocked returns the total blocked requests.
func (r AuditRow) Blocked() int { return r.BlockedInsecure + r.BlockedNoOptIn }

// Audit replays a crawl's observed local traffic under the policy. The
// adoption model follows §5.3's reasoning: native applications are the
// legitimate use case expected to opt in, so requests classified as
// native-application communication find an opted-in server; anti-abuse
// scanners, developer-error remnants, and unknown probes do not.
func Audit(st *store.Store, crawl groundtruth.CrawlID, policy Policy) []AuditRow {
	// Page security context per (os, domain), looked up only for the
	// domains that made local requests, from the index's per-domain
	// pages. The last page of a pair in store order wins; a pair with
	// no page reads as insecure.
	ix := pipeline.IndexFor(st)
	secure := map[[2]string]bool{}
	looked := map[string]bool{}
	pageSecure := func(osName, domain string) bool {
		if !looked[domain] {
			looked[domain] = true
			pages := ix.Site(domain).Pages
			for i := range pages {
				if p := &pages[i]; p.Crawl == string(crawl) {
					secure[[2]string{p.OS, p.Domain}] = strings.HasPrefix(p.URL, "https://")
				}
			}
		}
		return secure[[2]string{osName, domain}]
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
				d := policy.Evaluate(pageSecure(req.OS, req.Domain), optIn)
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
