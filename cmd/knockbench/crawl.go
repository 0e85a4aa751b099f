package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/crawler"
	"github.com/knockandtalk/knockandtalk/internal/goldencampaign"
	"github.com/knockandtalk/knockandtalk/internal/groundtruth"
	"github.com/knockandtalk/knockandtalk/internal/hostenv"
	"github.com/knockandtalk/knockandtalk/internal/store"
	"github.com/knockandtalk/knockandtalk/internal/websim"
)

// goldenSeed is the seed the committed goldens were generated at.
const goldenSeed = goldencampaign.Seed

// tracedShare is the length of crawl's traced phase as a share of its
// untraced one (6 s after 16 s).
const tracedShare = 6.0 / 16

// storeHashes are the sha256 digests of a campaign's three Save
// streams, keyed by crawl.
type storeHashes map[groundtruth.CrawlID]string

// leg is one (crawl, OS) of the golden campaign.
type leg struct {
	crawl groundtruth.CrawlID
	os    hostenv.OS
}

// legs lists the golden campaign's 8 legs in table order.
func legs(crawl groundtruth.CrawlID) []leg {
	var out []leg
	oses := groundtruth.OSesFor(crawl)
	for _, os := range hostenv.AllOS {
		if oses.Has(osBit(os)) {
			out = append(out, leg{crawl, os})
		}
	}
	return out
}

func osBit(os hostenv.OS) groundtruth.OSSet {
	switch os {
	case hostenv.Windows:
		return groundtruth.OSWindows
	case hostenv.Linux:
		return groundtruth.OSLinux
	default:
		return groundtruth.OSMac
	}
}

// campaign is one timed golden campaign.
type campaign struct {
	wall     time.Duration   // Build + RunWorld + Save of every leg
	legTimes []time.Duration // Build + RunWorld per leg
	build    time.Duration
	run      time.Duration
	save     time.Duration
	busy     map[string]time.Duration
	visits   int
	locals   int
	failures int // retention and checkpoint errors
	hashes   storeHashes
	// overhead is, per leg of a staged campaign, its StageTimings
	// crawl's time over a plain crawl of the same world, minus 1.
	overhead []float64
}

// runCampaign crawls the golden campaign at seed: every leg at scale
// 0.02 with NetLog retention, nominal network, NumCPU workers, into one
// in-memory store per crawl, then saves each store. staged turns on
// crawler.Config.StageTimings, and also crawls each leg's world once
// without it, into a scratch store, just before or after (alternating)
// the staged crawl: the two crawls of one world run milliseconds apart,
// so the machine's speed drift cancels out of the overhead.
func runCampaign(seed uint64, staged bool, spans *spanLog) (*campaign, error) {
	c := &campaign{busy: map[string]time.Duration{}, hashes: storeHashes{}}
	root := spans.start(nil, "campaign", fmt.Sprintf("seed %d", seed))
	start := time.Now()
	for _, crawl := range goldencampaign.Crawls {
		st := store.New()
		for _, l := range legs(crawl) {
			label := string(l.crawl) + "/" + l.os.String()
			ls := spans.start(root, "leg", label)
			legStart := time.Now()
			sp := spans.start(ls, "build", label)
			world, err := websim.Build(l.crawl, l.os, goldencampaign.Scale, seed)
			sp.end()
			if err != nil {
				return nil, err
			}
			build := time.Since(legStart)
			cfg := crawler.Config{
				Crawl: l.crawl, OS: l.os, Scale: goldencampaign.Scale, Seed: seed,
				Workers: runtime.NumCPU(), RetainLogs: true,
			}
			plainFirst := len(c.overhead)%2 == 0
			var plain time.Duration
			if staged && plainFirst {
				if plain, err = plainRun(cfg, world); err != nil {
					return nil, err
				}
			}
			sp = spans.start(ls, "run", label)
			cfg.StageTimings = staged
			runStart := time.Now()
			sum, err := crawler.RunWorld(cfg, world, st)
			run := time.Since(runStart)
			sp.end()
			if err != nil {
				return nil, err
			}
			if staged && !plainFirst {
				if plain, err = plainRun(cfg, world); err != nil {
					return nil, err
				}
			}
			ls.end()
			if staged {
				c.overhead = append(c.overhead, float64(run)/float64(plain)-1)
			}
			c.build += build
			c.run += run
			c.legTimes = append(c.legTimes, build+run)
			c.visits += sum.Attempted
			c.locals += sum.LocalRequests
			c.failures += sum.RetentionErrors + sum.CheckpointErrors
			for stage, d := range sum.StageBusy {
				c.busy[stage] += d
			}
		}
		sp := spans.start(root, "save", string(crawl))
		saveStart := time.Now()
		h := sha256.New()
		err := st.Save(h)
		c.save += time.Since(saveStart)
		sp.end()
		if err != nil {
			return nil, err
		}
		c.hashes[crawl] = fmt.Sprintf("%x", h.Sum(nil))
	}
	c.wall = time.Since(start)
	root.end()
	return c, nil
}

// plainRun crawls a world without stage timings into a scratch store.
func plainRun(cfg crawler.Config, world *websim.World) (time.Duration, error) {
	cfg.StageTimings = false
	start := time.Now()
	_, err := crawler.RunWorld(cfg, world, store.New())
	return time.Since(start), err
}

// readGoldenHashes reads testdata/golden/stores.sha256.
func readGoldenHashes(root string) (storeHashes, error) {
	raw, err := os.ReadFile(filepath.Join(root, "testdata", "golden", "stores.sha256"))
	if err != nil {
		return nil, err
	}
	out := storeHashes{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("stores.sha256: malformed line %q", line)
		}
		out[groundtruth.CrawlID(strings.TrimSuffix(f[1], ".jsonl"))] = f[0]
	}
	return out, nil
}

// checkHashes fails unless every crawl's Save stream hashes to want.
func checkHashes(got, want storeHashes) error {
	for _, crawl := range goldencampaign.Crawls {
		if got[crawl] != want[crawl] {
			return fmt.Errorf("crawl: %s store hash %s, want %s", crawl, got[crawl], want[crawl])
		}
	}
	return nil
}

// checkStageSplit fails unless the crawl's stage busy time accounts for
// all but maxUnattributedShare of its worker time.
func checkStageSplit(workerTime, unattributed time.Duration) error {
	if workerTime <= 0 {
		return fmt.Errorf("crawl: no worker time measured")
	}
	if share := float64(unattributed) / float64(workerTime); share > maxUnattributedShare || share < 0 {
		return fmt.Errorf("crawl: unattributed share %.3f of worker time, bound %.2f", share, maxUnattributedShare)
	}
	return nil
}

// runCrawl is the crawl workload.
func runCrawl(b *bench) error {
	r := b.res
	// Set-up: the reference campaign every timed campaign must repeat.
	ref, err := repeatSetup(b, func() (storeHashes, error) {
		c, err := runCampaign(b.seed, false, nil)
		if err != nil {
			return nil, err
		}
		return c.hashes, nil
	}, nil)
	if err != nil {
		return err
	}
	if b.seed == goldenSeed {
		want, err := readGoldenHashes(b.root)
		if err != nil {
			return err
		}
		r.check(checkHashes(ref, want))
	}
	if _, err := runCampaign(b.seed, false, nil); err != nil { // warm-up
		return err
	}
	runtime.GC()

	var perPage, legMS []float64
	rate := func(c *campaign) float64 { return float64(c.visits) / c.wall.Seconds() }
	checked := func(staged bool, spans *spanLog) (*campaign, error) {
		c, err := runCampaign(b.seed, staged, spans)
		if err != nil {
			return nil, err
		}
		r.attempted += c.visits
		r.failed += c.failures
		r.check(checkHashes(c.hashes, ref))
		return c, nil
	}
	for start := time.Now(); time.Since(start) < b.seconds || !enough(len(legMS), tailPercentile[b.workload]); {
		c, err := checked(false, nil)
		if err != nil {
			return err
		}
		perPage = append(perPage, rate(c))
		for _, d := range c.legTimes {
			legMS = append(legMS, ms(d))
		}
	}
	r.set("throughput_per_s", median(perPage))
	if err := setLatency(b, legMS); err != nil {
		return err
	}
	r.set("peak_rss_mb", peakRSSMiB())
	if !b.traced {
		return nil
	}

	var overhead, build, run, unattr, save, visit, detect, netlog, commit []float64
	var staged *campaign
	workers := time.Duration(runtime.NumCPU())
	for start := time.Now(); time.Since(start) < share(b, tracedShare); {
		var err error
		if staged, err = checked(true, b.spans); err != nil {
			return err
		}
		overhead = append(overhead, staged.overhead...)
		var busy time.Duration
		for _, d := range staged.busy {
			busy += d
		}
		u := workers*staged.run - busy
		r.check(checkStageSplit(workers*staged.run, u))
		build = append(build, staged.build.Seconds())
		run = append(run, staged.run.Seconds())
		unattr = append(unattr, u.Seconds())
		save = append(save, staged.save.Seconds())
		visit = append(visit, staged.busy["visit"].Seconds())
		detect = append(detect, staged.busy["detect"].Seconds())
		netlog = append(netlog, staged.busy["netlog"].Seconds())
		commit = append(commit, staged.busy["commit"].Seconds())
	}
	r.set("websim.build_s", median(build))
	r.set("crawler.run_s", median(run))
	r.set("crawler.unattributed_s", median(unattr))
	r.set("crawler.trace_overhead_pct", 100*median(overhead))
	r.set("crawler.visits", float64(staged.visits))
	r.set("crawler.local_requests", float64(staged.locals))
	r.set("browser.visit_busy_s", median(visit))
	r.set("localnet.detect_busy_s", median(detect))
	r.set("store.save_s", median(save))
	r.set("store.netlog_busy_s", median(netlog))
	r.set("store.commit_busy_s", median(commit))
	return nil
}
