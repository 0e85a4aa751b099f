// Package classify reproduces the behavioral taxonomy of §4.3: given the
// local-network requests one site generated (across all OSes it was
// crawled on), it decides why the site is talking to the local network —
// fraud detection (ThreatMetrix), bot detection (BIG-IP ASM Bot
// Defense), native-application communication, developer error, or
// unknown.
//
// The classifier works the way the paper's manual investigation did,
// mechanized: a catalogue of known third-party and native-application
// signatures (port sets, paths, and schemes) is checked first, then
// generic heuristics (port-scan shape, development-remnant paths,
// redirects to loopback) decide the rest.
package classify

import (
	"slices"
	"sort"
	"strings"

	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/portdb"
	"github.com/knockandtalk/knockandtalk/internal/store"
)

// Verdict is the classification of one site's local traffic.
type Verdict struct {
	Class groundtruth.Class
	// Signature names the matched rule (e.g. "threatmetrix",
	// "discord-rpc", "wp-remnant").
	Signature string
	// Corroboration carries independent attribution evidence, e.g. the
	// WHOIS registrant of the script host (set by Corroborate).
	Corroboration string
}

// evidence is the classifier's digested view of a site's requests.
type evidence struct {
	ports     map[uint16]bool
	schemes   map[string]bool
	paths     []string
	redirect  bool // any finding arrived via redirect
	wsOnly    bool
	httpRoots bool // http(s) request(s) to the root path
}

func digest(reqs []store.LocalRequest) evidence {
	ev := evidence{ports: map[uint16]bool{}, schemes: map[string]bool{}, wsOnly: len(reqs) > 0}
	seenPath := map[string]bool{}
	for _, r := range reqs {
		ev.ports[r.Port] = true
		ev.schemes[r.Scheme] = true
		if !seenPath[r.Path] {
			seenPath[r.Path] = true
			ev.paths = append(ev.paths, r.Path)
		}
		if r.ViaRedirect {
			ev.redirect = true
		}
		if r.Scheme != "ws" && r.Scheme != "wss" {
			ev.wsOnly = false
		}
		if (r.Scheme == "http" || r.Scheme == "https") && rootish(r.Path) {
			ev.httpRoots = true
		}
	}
	sort.Strings(ev.paths)
	return ev
}

func rootish(path string) bool {
	return path == "/" || path == "" || strings.HasPrefix(path, "/?")
}

// portsWithin reports whether every probed port is in set. The sets are
// a handful of ports, so a scan beats building a map on every call.
func (ev evidence) portsWithin(set []uint16) bool {
	for p := range ev.ports {
		if !slices.Contains(set, p) {
			return false
		}
	}
	return true
}

func (ev evidence) portOverlap(set []uint16) int {
	n := 0
	for _, p := range set {
		if ev.ports[p] {
			n++
		}
	}
	return n
}

func (ev evidence) anyPathContains(substrs ...string) bool {
	for _, p := range ev.paths {
		for _, s := range substrs {
			if strings.Contains(p, s) {
				return true
			}
		}
	}
	return false
}

func (ev evidence) anyPathHasExt(exts ...string) bool {
	for _, p := range ev.paths {
		clean := p
		if i := strings.IndexAny(clean, "?#"); i >= 0 {
			clean = clean[:i]
		}
		for _, e := range exts {
			if strings.HasSuffix(clean, e) {
				return true
			}
		}
	}
	return false
}

// signature is one catalogue entry.
type signature struct {
	name  string
	class groundtruth.Class
	match func(ev evidence) bool
}

// portsIn reports whether every probed port lies in the set and at least
// min of them were seen.
func portSetSig(name string, class groundtruth.Class, scheme string, set []uint16, min int) signature {
	return signature{name: name, class: class, match: func(ev evidence) bool {
		return ev.schemes[scheme] && ev.portsWithin(set) && ev.portOverlap(set) >= min
	}}
}

// The catalogue's constant port sets, built once rather than on every
// match.
var (
	anySignPorts   = []uint16{10531, 31027, 31029}
	nProtectPorts  = groundtruth.PortRange(14440, 14449)
	samsungPorts   = append(slices.Clip(anySignPorts), nProtectPorts...)
	discordPorts   = groundtruth.PortRange(6463, 6472)
	iwinPorts      = groundtruth.PortRange(2080, 2082)
	gnwayPorts     = groundtruth.PortRange(38681, 38687)
	range6880Ports = groundtruth.PortRange(6880, 6889)
)

// catalogue lists the known signatures, most specific first. It is the
// mechanized form of the paper's §4.3 attributions and Appendix A.
var catalogue = []signature{
	// LexisNexis ThreatMetrix: WSS scan of the remote-desktop port set
	// on path "/" (§4.3.1). Phishing pages that cloned a protected site
	// match the same signature.
	portSetSig("threatmetrix", groundtruth.ClassFraudDetection, "wss", portdb.ThreatMetrixPorts(), 8),

	// F5 BIG-IP ASM Bot Defense: HTTP scan of malware/automation ports
	// (§4.3.2).
	portSetSig("bigip-asm-bot-defense", groundtruth.ClassBotDetection, "http", portdb.BigIPPorts(), 4),

	// INCA nProtect Online Security + Hancom AnySign (samsungcard):
	// HTTPS to 14440-9 and WSS to the AnySign ports (Appendix A).
	{name: "nprotect-anysign", class: groundtruth.ClassNativeApp, match: func(ev evidence) bool {
		return ev.portOverlap(nProtectPorts) >= 3 || (ev.schemes["wss"] && ev.portsWithin(samsungPorts) && ev.portOverlap(anySignPorts) >= 2)
	}},

	// Discord RPC port walk: ws on 6463-6472, path /?v=1 (cponline.pw,
	// runeline.com).
	{name: "discord-rpc", class: groundtruth.ClassNativeApp, match: func(ev evidence) bool {
		return ev.schemes["ws"] && ev.portsWithin(discordPorts) && ev.anyPathContains("?v=1")
	}},

	// FACEIT anti-cheat client (ws 28337) vs. the fsist.com.br local
	// certificate service on the same port (path decides).
	{name: "faceit-client", class: groundtruth.ClassNativeApp, match: func(ev evidence) bool {
		return ev.schemes["ws"] && ev.portsWithin([]uint16{28337}) && !ev.anyPathContains("getCertificados")
	}},

	// GameHouse/Zylom game manager: /v1/init.json on 12071-2/17021/27021.
	{name: "gamehouse-manager", class: groundtruth.ClassNativeApp, match: func(ev evidence) bool {
		return ev.anyPathContains("/v1/init.json")
	}},

	// iWin games client: /version on 2080-2082.
	{name: "iwin-client", class: groundtruth.ClassNativeApp, match: func(ev evidence) bool {
		return ev.portsWithin(iwinPorts) && ev.anyPathContains("/version")
	}},

	// Screenleap screen-sharing client.
	{name: "screenleap-client", class: groundtruth.ClassNativeApp, match: func(ev evidence) bool {
		return ev.portsWithin([]uint16{5320}) && ev.anyPathContains("/status")
	}},

	// Ace Stream media client.
	{name: "acestream-client", class: groundtruth.ClassNativeApp, match: func(ev evidence) bool {
		return ev.anyPathContains("/webui/api/service")
	}},

	// trustdice.win local client: /socket.io handshakes on 50005-56005.
	{name: "trustdice-client", class: groundtruth.ClassNativeApp, match: func(ev evidence) bool {
		return ev.portsWithin([]uint16{50005, 51505, 53005, 54505, 56005}) && ev.anyPathContains("/socket.io")
	}},

	// games.lol launcher check.
	{name: "gameslol-launcher", class: groundtruth.ClassNativeApp, match: func(ev evidence) bool {
		return ev.schemes["ws"] && ev.portsWithin([]uint16{60202}) && ev.anyPathContains("/check")
	}},

	// iQIYI/PPS video client probe (2021 crawl).
	{name: "iqiyi-client", class: groundtruth.ClassNativeApp, match: func(ev evidence) bool {
		return ev.anyPathContains("/get_client_ver")
	}},

	// Uzbek e-signature middleware (soliqservis.uz, didox.uz).
	{name: "cryptapi-esign", class: groundtruth.ClassNativeApp, match: func(ev evidence) bool {
		return ev.portsWithin([]uint16{64443}) && ev.anyPathContains("/service/cryptapi")
	}},

	// Thunder (Xunlei) download manager JS library (§4.3.3).
	{name: "thunder-client", class: groundtruth.ClassNativeApp, match: func(ev evidence) bool {
		return ev.anyPathContains("/get_thunder_version")
	}},

	// GNWay remote-access client (ws 38681-38687).
	{name: "gnway-client", class: groundtruth.ClassNativeApp, match: func(ev evidence) bool {
		return ev.schemes["ws"] && ev.portsWithin(gnwayPorts) && ev.portOverlap(gnwayPorts) >= 2
	}},

	// Local socket.io handshake endpoints that are not file fetches
	// (trustdice-style native bridges, e.g. mcgeeandco.com).
	{name: "socketio-bridge", class: groundtruth.ClassNativeApp, match: func(ev evidence) bool {
		return ev.anyPathContains("/socket.io") && !ev.anyPathHasExt(".js")
	}},

	// BitTorrent/Hola-style local client range 6880-6889: the paper
	// could not determine the purpose (Appendix C).
	{name: "local-6880-range", class: groundtruth.ClassUnknown, match: func(ev evidence) bool {
		return ev.portsWithin(range6880Ports)
	}},
}

// Site classifies one site's localhost traffic. reqs must be non-empty
// and belong to a single domain (any mix of OSes and crawls).
func Site(reqs []store.LocalRequest) Verdict {
	if len(reqs) == 0 {
		return Verdict{Class: groundtruth.ClassUnknown, Signature: "no-traffic"}
	}
	ev := digest(reqs)
	for _, sig := range catalogue {
		if sig.match(ev) {
			return Verdict{Class: sig.class, Signature: sig.name}
		}
	}

	// Generic port-scan shape: many distinct ports, root path, no known
	// signature — profiling of unknown purpose (wowreality.info).
	if len(ev.ports) >= 15 && !ev.anyPathHasExt(".jpg", ".png", ".gif", ".js", ".css") {
		return Verdict{Class: groundtruth.ClassUnknown, Signature: "port-scan"}
	}

	// Development remnants: files and tooling endpoints left pointing at
	// the developer's machine (§4.3.4, Appendix B).
	devMarkers := []string{
		"/wp-content/", "/wp-includes/", "livereload.js", "/sockjs-node/",
		"sockjs.min.js", "xook.js", "NonExistentImage", "/node_modules/",
	}
	if ev.anyPathContains(devMarkers...) {
		return Verdict{Class: groundtruth.ClassDevError, Signature: "dev-remnant"}
	}
	if ev.anyPathHasExt(".jpg", ".jpeg", ".png", ".gif", ".ico", ".css", ".js", ".json",
		".html", ".mp4", ".ogg", ".svg", ".woff", ".txt") {
		return Verdict{Class: groundtruth.ClassDevError, Signature: "local-file-fetch"}
	}
	if ev.redirect {
		return Verdict{Class: groundtruth.ClassDevError, Signature: "redirect-to-loopback"}
	}

	// WebSocket probes to unknown ports with no path information remain
	// unexplained (usaonlineclassifieds.com, usnetads.com).
	if ev.wsOnly {
		return Verdict{Class: groundtruth.ClassUnknown, Signature: "ws-probe"}
	}

	// HTTP(S) to a non-root path on localhost: a local service endpoint
	// left in production code (zakupki, interbank, phonearena, ...).
	if !ev.httpRoots || len(ev.paths) > 1 {
		return Verdict{Class: groundtruth.ClassDevError, Signature: "local-service-remnant"}
	}

	// Bare HTTP(S) fetch of the localhost root: an absolute local URL
	// shipped to production (tonyhealy.co.za, filemail.com, the rakuten
	// clones).
	return Verdict{Class: groundtruth.ClassDevError, Signature: "absolute-local-url"}
}

// LANSite classifies one site's LAN traffic: developer error for
// resource fetches from private addresses, unknown for the bare-root
// iframe pattern (which Appendix C links to censorship infrastructure in
// the 10.10.34.0/24 range).
func LANSite(reqs []store.LocalRequest) Verdict {
	if len(reqs) == 0 {
		return Verdict{Class: groundtruth.ClassUnknown, Signature: "no-traffic"}
	}
	ev := digest(reqs)
	censorship := false
	for _, r := range reqs {
		if strings.HasPrefix(r.Host, "10.10.34.") {
			censorship = true
		}
	}
	if censorship && ev.httpRoots {
		return Verdict{Class: groundtruth.ClassUnknown, Signature: "censorship-iframe"}
	}
	if ev.httpRoots && len(ev.paths) == 1 {
		return Verdict{Class: groundtruth.ClassUnknown, Signature: "lan-root-fetch"}
	}
	return Verdict{Class: groundtruth.ClassDevError, Signature: "lan-dev-remnant"}
}

// ByDomain groups requests by domain and classifies each group,
// splitting localhost and LAN destinations as the paper does (no site
// overlapped both sets in either crawl).
func ByDomain(reqs []store.LocalRequest) map[string]Verdict {
	localhost := map[string][]store.LocalRequest{}
	lan := map[string][]store.LocalRequest{}
	for _, r := range reqs {
		if r.Dest == "lan" {
			lan[r.Domain] = append(lan[r.Domain], r)
		} else {
			localhost[r.Domain] = append(localhost[r.Domain], r)
		}
	}
	out := make(map[string]Verdict, len(localhost)+len(lan))
	for d, rs := range localhost {
		out[d] = Site(rs)
	}
	for d, rs := range lan {
		if _, dup := out[d]; !dup {
			out[d] = LANSite(rs)
		}
	}
	return out
}
