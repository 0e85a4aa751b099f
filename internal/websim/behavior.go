package websim

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/webdoc"
)

// Delay models. The paper's Figure 5 shows when sites issue their first
// local request after the page is fetched: fraud- and bot-detection
// scripts fire late (they wait for page idle before profiling, putting
// the Windows median near 10 s), native-app probes and developer-error
// resource fetches fire during or shortly after render (Linux/Mac median
// under 5 s), and everything lands within the 20-second window with a
// maximum near 17 s.
type delayRange struct{ lo, hi time.Duration }

var classDelays = map[groundtruth.Class]delayRange{
	groundtruth.ClassFraudDetection: {9800 * time.Millisecond, 13400 * time.Millisecond},
	groundtruth.ClassBotDetection:   {9500 * time.Millisecond, 12000 * time.Millisecond},
	groundtruth.ClassNativeApp:      {1000 * time.Millisecond, 6000 * time.Millisecond},
	groundtruth.ClassDevError:       {800 * time.Millisecond, 8500 * time.Millisecond},
	groundtruth.ClassUnknown:        {2000 * time.Millisecond, 16000 * time.Millisecond},
}

// devErrorDelayWindows widens the Windows developer-error window: the
// paper's Figure 5a shows the Windows localhost median at 10 s, which
// requires a long tail beyond the anti-abuse scanners — Windows-specific
// page variants load their leftover resources late.
var devErrorDelayWindows = delayRange{1000 * time.Millisecond, 16500 * time.Millisecond}

// firstProbeDelay draws the deterministic per-(site, OS) start delay for
// a behavior class.
func firstProbeDelay(seed uint64, domain string, os hostenv.OS, class groundtruth.Class) time.Duration {
	r := classDelays[class]
	if class == groundtruth.ClassDevError && os == hostenv.Windows {
		r = devErrorDelayWindows
	}
	span := uint64((r.hi - r.lo) / time.Millisecond)
	off := hashN(seed, span, "delay", domain, os.String())
	return r.lo + time.Duration(off)*time.Millisecond
}

// lanDelay draws the start delay for a LAN request: typically under 5 s
// (LAN fetches are render-time resource loads), with a sparse late tail
// out to ~16 s on Linux and Mac only — Figure 5b shows the Windows
// maximum at 5 s but 15–16 s maxima on the other OSes.
func lanDelay(seed uint64, domain string, os hostenv.OS) time.Duration {
	if os != hostenv.Windows && hashN(seed, 4, "lantail", domain) == 0 {
		off := hashN(seed, 8000, "lanlate", domain, os.String())
		return 8*time.Second + time.Duration(off)*time.Millisecond
	}
	off := hashN(seed, 4400, "lan", domain, os.String())
	return 600*time.Millisecond + time.Duration(off)*time.Millisecond
}

// portGap is the pacing between successive port probes in a scan.
func portGap(seed uint64, domain string, i int) time.Duration {
	return time.Duration(30+hashN(seed, 90, "gap", domain, strconv.Itoa(i)))*time.Millisecond + time.Duration(i)*30*time.Millisecond
}

// initiatorFor labels the page element issuing a class of local request,
// matching what the paper's manual investigation attributed requests to.
func initiatorFor(class groundtruth.Class) string {
	switch class {
	case groundtruth.ClassFraudDetection:
		return "blob:threatmetrix" // dynamically generated JS blob (§4.3.1)
	case groundtruth.ClassBotDetection:
		return "script:/TSPD" // BIG-IP ASM Bot Defense path (§4.3.2)
	case groundtruth.ClassNativeApp:
		return "script:native-app"
	case groundtruth.ClassDevError:
		return "img"
	default:
		return "script"
	}
}

// expandPath replaces the ground-truth tables' * wildcards with a
// deterministic token.
func expandPath(seed uint64, domain, tmpl string) string {
	if !strings.Contains(tmpl, "*") {
		return tmpl
	}
	token := fmt.Sprintf("x%04x", hashN(seed, 1<<16, "path", domain, tmpl))
	return strings.ReplaceAll(tmpl, "*", token)
}

// discordPortWindow is how many of the ten Discord RPC ports (6463-6472)
// a client-discovery probe tries in one visit: the real client library
// walks the range and stops quickly, and the paper's per-OS request
// totals (Figure 4a: 19 ws requests on Windows) imply only a few probes
// per site.
const discordPortWindow = 4

func isDiscordRange(ports []uint16) bool {
	return len(ports) == 10 && ports[0] == 6463 && ports[9] == 6472
}

// localhostHost picks the host literal a behavior uses. Anti-abuse and
// native-app scripts address "localhost"; developer-error remnants embed
// the literal loopback address their test server ran on.
func localhostHost(class groundtruth.Class) string {
	if class == groundtruth.ClassDevError {
		return "127.0.0.1"
	}
	return "localhost"
}

// localhostSteps expands one ground-truth localhost row into the page's
// scheduled requests for the given OS. It returns nil when the behavior
// was not observed on that OS.
func localhostSteps(seed uint64, row groundtruth.LocalhostRow, os hostenv.OS) []webdoc.Step {
	if !row.OS.Has(osBit(os)) {
		return nil
	}
	start := firstProbeDelay(seed, row.Domain, os, row.Class)
	initiator := initiatorFor(row.Class)
	host := localhostHost(row.Class)
	var steps []webdoc.Step
	for _, probe := range row.Probes {
		ports := probe.Ports
		if isDiscordRange(ports) {
			lo := int(hashN(seed, uint64(len(ports)-discordPortWindow+1), "discord", row.Domain, os.String()))
			ports = ports[lo : lo+discordPortWindow]
		}
		path := expandPath(seed, row.Domain, probe.Path)
		for i, port := range ports {
			steps = append(steps, webdoc.Step{
				At:        start + portGap(seed, row.Domain, i),
				URL:       fmt.Sprintf("%s://%s:%d%s", probe.Scheme, host, port, ensureSlash(path)),
				Initiator: initiator,
			})
		}
	}
	return steps
}

// lanSteps expands one ground-truth LAN row into scheduled requests.
func lanSteps(seed uint64, row groundtruth.LANRow, os hostenv.OS) []webdoc.Step {
	if !row.OS.Has(osBit(os)) {
		return nil
	}
	initiator := "img"
	if !row.DevError {
		// The unexplained LAN rows embed an iframe sourced at the local
		// address (the censorship pattern of Appendix C).
		initiator = "iframe"
	}
	hostport := row.Addr
	var scheme = row.Scheme
	defPort := uint16(80)
	if scheme == "https" {
		defPort = 443
	}
	if row.Port != defPort {
		hostport = fmt.Sprintf("%s:%d", row.Addr, row.Port)
	}
	return []webdoc.Step{{
		At:        lanDelay(seed, row.Domain, os),
		URL:       fmt.Sprintf("%s://%s%s", scheme, hostport, ensureSlash(expandPath(seed, row.Domain, row.Path))),
		Initiator: initiator,
	}}
}

func ensureSlash(p string) string {
	if p == "" || p[0] != '/' {
		return "/" + p
	}
	return p
}

// subresourceSteps synthesizes the ordinary public-CDN fetches every
// successful page makes while rendering (scripts, styles, images).
func subresourceSteps(seed uint64, domain string) []webdoc.Step {
	n := int(hashN(seed, 7, "nres", domain)) + 2
	steps := make([]webdoc.Step, 0, n)
	for i := 0; i < n; i++ {
		is := strconv.Itoa(i)
		h := int(hashN(seed, cdnCount, "cdn", domain, is))
		at := time.Duration(40+hashN(seed, 900, "resat", domain, is)) * time.Millisecond
		// The asset number is below 1<<20; setting that bit and dropping
		// its digit writes the number as five zero-padded hex digits.
		asset := strconv.FormatUint(1<<20|hashN(seed, 1<<20, "asset", domain, is), 16)[1:]
		steps = append(steps, webdoc.Step{
			At:        at,
			URL:       "https://" + cdnHosts[h] + "/assets/" + asset + ".js",
			Initiator: "parser",
		})
	}
	return steps
}
