package websim

import (
	"fmt"
	"strings"

	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/simnet"
	"github.com/knockandtalk/knockandtalk/internal/webdoc"
)

// Login-page extension (§4.3.1 / §6 future work). The paper measured
// landing pages only and notes its counts are therefore a lower bound:
// "ThreatMetrix may be more broadly deployed on the internal pages of
// other websites. Indeed, a recent blog post identified several
// websites using ThreatMetrix specifically on login pages."
//
// The synthetic web models this: a set of additional top-list sites —
// drawn from the BleepingComputer list the paper cites as [5] — deploy
// the ThreatMetrix scan only on /login, so a landing-page crawl misses
// them and a login-page crawl (crawler.Config.PagePath = "/login")
// reveals the difference.

// LoginPath is the internal page the extension crawls.
const LoginPath = "/login"

// LoginOnlyDeployers returns the extension's login-only ThreatMetrix
// sites and their ranks (groundtruth.LoginOnlyThreatMetrix).
func LoginOnlyDeployers() map[string]int {
	out := make(map[string]int, len(groundtruth.LoginOnlyThreatMetrix))
	for d, r := range groundtruth.LoginOnlyThreatMetrix {
		out[d] = r
	}
	return out
}

// loginTMRow builds the synthetic ThreatMetrix row for a login-only
// deployer.
func loginTMRow(domain string) groundtruth.LocalhostRow {
	return groundtruth.LocalhostRow{
		Domain: domain,
		Class:  groundtruth.ClassFraudDetection,
		Probes: []groundtruth.Probe{{Scheme: "wss", Ports: []uint16{
			3389, 5279, 5900, 5901, 5902, 5903, 5931, 5939, 5944, 5950, 6039, 6040, 7070, 63333,
		}, Path: "/"}},
		OS: groundtruth.OSWindows,
	}
}

// loginPage assembles the /login document for a site: ordinary
// sub-resources plus, where the site deploys anti-abuse on its login
// flow, the ThreatMetrix scan.
func (w *World) loginPage(spec siteSpec, scheme string, seed uint64) *webdoc.Page {
	page := &webdoc.Page{
		URL:      fmt.Sprintf("%s://%s%s", scheme, spec.domain, LoginPath),
		BodySize: 2048 + int(hashN(seed, 30000, "loginbody", spec.domain)),
		Steps:    subresourceSteps(seed, spec.domain+LoginPath),
	}
	// Sites already scanning on the landing page scan on login too
	// (ThreatMetrix is deployed site-wide on its known customers).
	for _, row := range spec.localRows {
		probes := w.attachThreatMetrix(page, row, localhostSteps(seed, row, w.OS), seed)
		page.Steps = append(page.Steps, probes...)
	}
	if _, ok := groundtruth.LoginOnlyThreatMetrix[spec.domain]; ok {
		row := loginTMRow(spec.domain)
		probes := w.attachThreatMetrix(page, row, localhostSteps(seed, row, w.OS), seed)
		page.Steps = append(page.Steps, probes...)
	}
	return page
}

// RawHTMLHeader asks a site for real markup instead of the precompiled
// document; the browser's HTML-parsing mode sends it. Rendering happens
// on demand, so serving 100K sites does not hold 100K HTML bodies.
const RawHTMLHeader = "X-Knockandtalk-Raw-HTML"

// multiPageService routes requests by path: the landing document at "/",
// the login document at LoginPath, and 404 elsewhere.
func multiPageService(pages map[string]*webdoc.Page) simnet.Service {
	return simnet.ServiceFunc(func(req *simnet.Request) *simnet.Response {
		path := req.Path
		if i := strings.IndexAny(path, "?#"); i >= 0 {
			path = path[:i]
		}
		page, ok := pages[path]
		if !ok {
			return &simnet.Response{Status: 404, ContentType: "text/html", BodySize: 512}
		}
		if req.Header[RawHTMLHeader] == "1" {
			raw := RenderHTML(page)
			return &simnet.Response{
				Status:      200,
				ContentType: "text/html",
				BodySize:    len(raw),
				Document:    raw,
			}
		}
		return &simnet.Response{
			Status:      200,
			ContentType: "text/html",
			BodySize:    page.BodySize,
			Document:    page,
		}
	})
}
