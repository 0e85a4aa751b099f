// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its table/figure from a
// full-scale reproduction crawl (built once per process, ~2 minutes:
// the 2020 top-100K crawl on three OSes, the 2021 crawl on two, and the
// ~145K-page malicious crawl on three) and asserts the headline
// properties that define the experiment's "shape".
//
//	go test -bench=. -benchmem
//
// For quick iterations, -bench with -benchscale 0.01 uses a 1%
// population.
package knockandtalk_test

import (
	"flag"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	knockandtalk "github.com/knockandtalk/knockandtalk"
	"github.com/knockandtalk/knockandtalk/internal/analysis"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/localnet"
	"github.com/knockandtalk/knockandtalk/internal/pna"
	"github.com/knockandtalk/knockandtalk/internal/report"
	"github.com/knockandtalk/knockandtalk/internal/websim"

	"github.com/knockandtalk/knockandtalk/internal/browser"
	"github.com/knockandtalk/knockandtalk/internal/crawler"
	"github.com/knockandtalk/knockandtalk/internal/store"
)

var benchScale = flag.Float64("benchscale", 1.0, "population scale for the benchmark crawls")

const benchSeed = 20210603 // the 2020 Tranco snapshot date

var (
	benchOnce  sync.Once
	benchStore *store.Store
)

// fullStore crawls all three campaigns once per process.
func fullStore(b *testing.B) *store.Store {
	b.Helper()
	benchOnce.Do(func() {
		benchStore = store.New()
		for _, crawl := range []groundtruth.CrawlID{
			groundtruth.CrawlTop2020, groundtruth.CrawlTop2021, groundtruth.CrawlMalicious,
		} {
			_, err := crawler.RunAll(crawler.Config{
				Crawl: crawl, Scale: *benchScale, Seed: benchSeed,
			}, benchStore)
			if err != nil {
				panic(err)
			}
		}
	})
	return benchStore
}

func atFullScale() bool { return *benchScale >= 1 }

// --- Tables ---

func BenchmarkTable1(b *testing.B) {
	st := fullStore(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Table1(st)
	}
	rows := analysis.CrawlTable(st)
	if len(rows) != 8 {
		b.Fatalf("Table 1 must have 8 crawl rows, got %d", len(rows))
	}
	for _, r := range rows {
		if rate := float64(r.Successful) / float64(r.Total()); r.Crawl != groundtruth.CrawlMalicious && (rate < 0.88 || rate > 0.93) {
			b.Fatalf("%s/%s success rate %.3f outside the paper's ~90%%", r.Crawl, r.OS, rate)
		}
	}
	sink(b, out)
}

func BenchmarkTable2(b *testing.B) {
	st := fullStore(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Table2(st)
	}
	rows := analysis.MaliciousSummary(st)
	if len(rows) != 3 {
		b.Fatalf("Table 2 must have 3 categories, got %d", len(rows))
	}
	if atFullScale() {
		// Malware succeeds least, abuse most (the paper's ordering).
		if !(rows[0].SuccessRate["Linux"] < rows[2].SuccessRate["Linux"] &&
			rows[2].SuccessRate["Linux"] < rows[1].SuccessRate["Linux"]) {
			b.Fatalf("success-rate ordering malware < phishing < abuse violated: %+v", rows)
		}
	}
	sink(b, out)
}

func BenchmarkTable3(b *testing.B) {
	st := fullStore(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Table3(st, groundtruth.CrawlTop2020)
	}
	if atFullScale() {
		sites := analysis.LocalSites(st, groundtruth.CrawlTop2020, "localhost")
		win := analysis.TopN(sites, groundtruth.OSWindows, 10)
		for i, want := range groundtruth.Table3Windows2020 {
			if win[i].Domain != want {
				b.Fatalf("Table 3 Windows[%d] = %s, paper prints %s", i, win[i].Domain, want)
			}
		}
		lin := analysis.TopN(sites, groundtruth.OSLinux, 10)
		for i, want := range groundtruth.Table3LinuxMac2020 {
			if lin[i].Domain != want {
				b.Fatalf("Table 3 Linux/Mac[%d] = %s, paper prints %s", i, lin[i].Domain, want)
			}
		}
	}
	sink(b, out)
}

func BenchmarkTable4(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Table4()
	}
	if !strings.Contains(out, "TeamViewer") || !strings.Contains(out, "W32.Loxbot.A") {
		b.Fatal("Table 4 registry incomplete")
	}
	sink(b, out)
}

func benchLocalhostTable(b *testing.B, crawl groundtruth.CrawlID, title string, wantSites int) {
	st := fullStore(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.LocalhostTable(st, crawl, title)
	}
	if atFullScale() {
		if got := len(analysis.LocalSites(st, crawl, "localhost")); got != wantSites {
			b.Fatalf("%s: %d localhost sites, paper reports %d", crawl, got, wantSites)
		}
	}
	sink(b, out)
}

func benchLANTable(b *testing.B, crawl groundtruth.CrawlID, title string, wantSites int) {
	st := fullStore(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.LANTable(st, crawl, title)
	}
	if atFullScale() {
		if got := len(analysis.LocalSites(st, crawl, "lan")); got != wantSites {
			b.Fatalf("%s: %d LAN sites, paper reports %d", crawl, got, wantSites)
		}
	}
	sink(b, out)
}

func BenchmarkTable5(b *testing.B) {
	benchLocalhostTable(b, groundtruth.CrawlTop2020, "Table 5", 107)
}

func BenchmarkTable6(b *testing.B) {
	benchLANTable(b, groundtruth.CrawlTop2020, "Table 6", 9)
}

func BenchmarkTable7(b *testing.B) {
	benchLocalhostTable(b, groundtruth.CrawlTop2021, "Table 7", 82)
}

func BenchmarkTable8(b *testing.B) {
	benchLocalhostTable(b, groundtruth.CrawlMalicious, "Table 8", 151)
}

func BenchmarkTable9(b *testing.B) {
	benchLANTable(b, groundtruth.CrawlMalicious, "Table 9", 9)
}

func BenchmarkTable10(b *testing.B) {
	benchLANTable(b, groundtruth.CrawlTop2021, "Table 10", 8)
}

// BenchmarkTable11 regenerates the developer-error subset of the 2020
// listing (printed separately in the paper).
func BenchmarkTable11(b *testing.B) {
	st := fullStore(b)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		sites := analysis.LocalSites(st, groundtruth.CrawlTop2020, "localhost")
		n = analysis.ClassCounts(sites)[groundtruth.ClassDevError]
	}
	if atFullScale() && n != 45 {
		b.Fatalf("2020 developer-error sites = %d, table prints 45", n)
	}
}

// --- Figures ---

func BenchmarkFigure2(b *testing.B) {
	st := fullStore(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Figure2(st, groundtruth.CrawlTop2020) + report.Figure2(st, groundtruth.CrawlMalicious)
	}
	if atFullScale() {
		sites := analysis.LocalSites(st, groundtruth.CrawlTop2020, "localhost")
		venn := analysis.Venn(sites)
		for region, want := range groundtruth.Top2020Venn {
			if venn[region] != want {
				b.Fatalf("2020 venn region %v = %d, paper reports %d", region, venn[region], want)
			}
		}
		mal := analysis.Venn(analysis.LocalSites(st, groundtruth.CrawlMalicious, "localhost"))
		for region, want := range groundtruth.MaliciousVenn {
			if mal[region] != want {
				b.Fatalf("malicious venn region %v = %d, paper reports %d", region, mal[region], want)
			}
		}
	}
	sink(b, out)
}

func BenchmarkFigure3(b *testing.B) {
	st := fullStore(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.RankCDFFigure(st, groundtruth.CrawlTop2020, "Figure 3")
	}
	if atFullScale() {
		sites := analysis.LocalSites(st, groundtruth.CrawlTop2020, "localhost")
		// Ranks spread roughly uniformly: the median detected rank sits
		// mid-list, not clustered at the head.
		cdf := analysis.RankCDF(sites, groundtruth.OSWindows)
		med := analysis.Quantile(xs(cdf), 0.5)
		if med < 20000 || med > 80000 {
			b.Fatalf("median detected rank %v; Figure 3 shows a near-uniform spread", med)
		}
	}
	sink(b, out)
}

func BenchmarkFigure4(b *testing.B) {
	st := fullStore(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.SchemeRollupFigure(st, groundtruth.CrawlTop2020, "Figure 4a") +
			report.SchemeRollupFigure(st, groundtruth.CrawlMalicious, "Figure 4b")
	}
	if atFullScale() {
		r := analysis.SchemeRollup(st, groundtruth.CrawlTop2020, "Windows", "localhost")
		// The paper's signature finding: WSS dominates Windows localhost
		// traffic (~60% of 664 requests).
		if frac := float64(r.ByScheme["wss"]) / float64(r.Total); frac < 0.5 {
			b.Fatalf("wss share on Windows = %.2f, paper reports ~0.74 of 664", frac)
		}
		lin := analysis.SchemeRollup(st, groundtruth.CrawlTop2020, "Linux", "localhost")
		if lin.ByScheme["http"] <= lin.ByScheme["wss"] {
			b.Fatal("Linux must be HTTP-dominated (the opposite pattern)")
		}
	}
	sink(b, out)
}

func benchDelayFigure(b *testing.B, crawl groundtruth.CrawlID, title string) {
	st := fullStore(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.DelayCDFFigure(st, crawl, "localhost", title) +
			report.DelayCDFFigure(st, crawl, "lan", title)
	}
	sites := analysis.LocalSites(st, crawl, "localhost")
	for _, os := range []groundtruth.OSSet{groundtruth.OSWindows, groundtruth.OSLinux} {
		for _, d := range analysis.DelaySeconds(sites, os) {
			if d < 0 || d > 20 {
				b.Fatalf("delay %.1fs outside the 20s window", d)
			}
		}
	}
	sink(b, out)
}

func BenchmarkFigure5(b *testing.B) {
	benchDelayFigure(b, groundtruth.CrawlTop2020, "Figure 5")
	if atFullScale() {
		st := fullStore(b)
		sites := analysis.LocalSites(st, groundtruth.CrawlTop2020, "localhost")
		// Medians: ~10s on Windows, ≤5s-ish on Linux/Mac; maxima ≤ 17s.
		w := analysis.Quantile(analysis.DelaySeconds(sites, groundtruth.OSWindows), 0.5)
		l := analysis.Quantile(analysis.DelaySeconds(sites, groundtruth.OSLinux), 0.5)
		if w < 7.5 || w > 12.5 {
			b.Fatalf("Windows median delay %.1fs, paper reports ~10s", w)
		}
		if l > 7 {
			b.Fatalf("Linux median delay %.1fs, paper reports ~5s", l)
		}
		if max := analysis.Quantile(analysis.DelaySeconds(sites, groundtruth.OSWindows), 1); max > 17.5 {
			b.Fatalf("Windows max delay %.1fs, paper reports ≤17s", max)
		}
	}
}

func BenchmarkFigure6(b *testing.B) { benchDelayFigure(b, groundtruth.CrawlTop2021, "Figure 6") }

func BenchmarkFigure7(b *testing.B) { benchDelayFigure(b, groundtruth.CrawlMalicious, "Figure 7") }

func BenchmarkFigure8(b *testing.B) {
	st := fullStore(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.SchemeRollupFigure(st, groundtruth.CrawlTop2021, "Figure 8")
	}
	if atFullScale() {
		r := analysis.SchemeRollup(st, groundtruth.CrawlTop2021, "Windows", "localhost")
		if frac := float64(r.ByScheme["wss"]) / float64(r.Total); frac < 0.5 {
			b.Fatalf("2021 wss share on Windows = %.2f, paper reports ~0.80 of 512", frac)
		}
	}
	sink(b, out)
}

func BenchmarkFigure9(b *testing.B) {
	st := fullStore(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.RankCDFFigure(st, groundtruth.CrawlTop2021, "Figure 9")
	}
	if atFullScale() {
		sites := analysis.LocalSites(st, groundtruth.CrawlTop2021, "localhost")
		totals := analysis.OSTotals(sites)
		if totals[groundtruth.OSWindows] != 82 || totals[groundtruth.OSLinux] != 48 {
			b.Fatalf("2021 per-OS totals W%d L%d, paper reports W82 L48",
				totals[groundtruth.OSWindows], totals[groundtruth.OSLinux])
		}
	}
	sink(b, out)
}

// --- Headline and extensions ---

func BenchmarkHeadline(b *testing.B) {
	st := fullStore(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.Headline(st, groundtruth.CrawlTop2020) +
			report.Headline(st, groundtruth.CrawlTop2021) +
			report.Headline(st, groundtruth.CrawlMalicious)
	}
	if atFullScale() {
		for _, h := range groundtruth.Headlines() {
			lh := len(analysis.LocalSites(st, h.Crawl, "localhost"))
			lan := len(analysis.LocalSites(st, h.Crawl, "lan"))
			if lh != h.Localhost || lan != h.LAN {
				b.Fatalf("%s: measured (%d, %d), paper reports (%d, %d)", h.Crawl, lh, lan, h.Localhost, h.LAN)
			}
		}
	}
	sink(b, out)
}

func BenchmarkPNADefense(b *testing.B) {
	st := fullStore(b)
	b.ResetTimer()
	var rows []pna.AuditRow
	for i := 0; i < b.N; i++ {
		rows = pna.Audit(st, groundtruth.CrawlTop2020, pna.WICGDraft)
	}
	for _, r := range rows {
		if r.Class == groundtruth.ClassNativeApp && r.Allowed != r.Requests {
			b.Fatal("native-app traffic must survive the WICG draft")
		}
		if r.Class == groundtruth.ClassFraudDetection && r.Allowed != 0 {
			b.Fatal("host-profiling scans must be blocked by the WICG draft")
		}
	}
}

// BenchmarkCrawlThroughput measures end-to-end crawl speed in pages per
// second over a fixed 5% slice of the 2020 Windows crawl, at 1, 2, 4,
// and 8 workers. The world is built once outside the timer, so the
// number isolates the visit → extract → store hot path — the
// scaling curve across the sub-benchmarks shows how far the sharded
// store and per-worker tallies let extra workers help (on a single-CPU
// host the curve is flat; the win is contention removed, not
// parallelism gained).
func BenchmarkCrawlThroughput(b *testing.B) {
	world, err := websim.Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.05, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := crawler.Config{
				Crawl: groundtruth.CrawlTop2020, OS: hostenv.Windows,
				Scale: 0.05, Seed: benchSeed, Workers: workers,
			}
			b.ResetTimer()
			var pages int
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				sum, err := crawler.RunWorld(cfg, world, store.New())
				if err != nil {
					b.Fatal(err)
				}
				pages += sum.Attempted
				elapsed += sum.Elapsed
			}
			b.ReportMetric(float64(pages)/elapsed.Seconds(), "pages/sec")
		})
	}
}

// --- Pipeline microbenchmarks ---

func BenchmarkVisitQuietPage(b *testing.B) {
	world, err := websim.Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.001, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	br := browser.New(hostenv.DefaultProfile(hostenv.Windows), world.Net, browser.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Visit(world.Targets[i%len(world.Targets)].URL)
	}
}

func BenchmarkVisitScanningPage(b *testing.B) {
	world, err := websim.Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.01, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	br := browser.New(hostenv.DefaultProfile(hostenv.Windows), world.Net, browser.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Visit("https://ebay.com/")
	}
}

func BenchmarkDetect(b *testing.B) {
	world, err := websim.Build(groundtruth.CrawlTop2020, hostenv.Windows, 0.01, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	br := browser.New(hostenv.DefaultProfile(hostenv.Windows), world.Net, browser.DefaultOptions())
	res := br.Visit("https://ebay.com/")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(localnet.FromLog(res.Log)); got != 14 {
			b.Fatalf("findings = %d", got)
		}
	}
}

func BenchmarkClassify(b *testing.B) {
	reqs := []knockandtalk.LocalRequest{}
	for _, port := range []uint16{3389, 5279, 5900, 5901, 5902, 5903, 5931, 5939, 5944, 5950, 6039, 6040, 7070, 63333} {
		reqs = append(reqs, knockandtalk.LocalRequest{
			Domain: "ebay.com", Scheme: "wss", Host: "localhost", Port: port, Path: "/", Dest: "localhost",
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := knockandtalk.ClassifySite(reqs); v.Class != knockandtalk.ClassFraudDetection {
			b.Fatal("misclassified")
		}
	}
}

// --- helpers ---

var benchSink string

func sink(b *testing.B, s string) {
	if s == "" {
		b.Fatal("empty report output")
	}
	benchSink = s
}

func xs(points []analysis.CDFPoint) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = p.X
	}
	return out
}
