package store_test

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/knockandtalk/knockandtalk/internal/crawler"
	"github.com/knockandtalk/knockandtalk/internal/goldencampaign"
	"github.com/knockandtalk/knockandtalk/internal/store"
)

// TestGoldenDirectoryDecodesFast crawls the golden campaign into a
// durable directory, as knockbench's recover workload does, and checks
// that every segment line and WAL frame it wrote, and every line of the
// campaign's Save exports, decodes on the fast path. A change to what
// the encoders write that the fast path does not follow would still
// load correctly through encoding/json, only slowly; this test makes
// that fail instead.
func TestGoldenDirectoryDecodesFast(t *testing.T) {
	dir := t.TempDir()
	st, lg, _, err := store.Open(dir, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, crawl := range goldencampaign.Crawls {
		if _, err := crawler.RunAll(crawler.Config{
			Crawl: crawl, Scale: goldencampaign.Scale, Seed: goldencampaign.Seed, RetainLogs: true,
		}, st); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	segments, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	checkLines := func(name string, data []byte) {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 64<<20)
		for n := 1; sc.Scan(); n++ {
			lines++
			if !store.DecodesFast(sc.Bytes()) {
				t.Errorf("%s line %d falls back to encoding/json: %.200s", name, n, sc.Bytes())
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for _, seg := range segments {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		checkLines(filepath.Base(seg), data)
	}
	for _, crawl := range goldencampaign.Crawls {
		data, err := goldencampaign.Encoded(crawl)
		if err != nil {
			t.Fatal(err)
		}
		checkLines(string(crawl)+".jsonl", data)
	}

	f, err := os.Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frames, netlogFrames := 0, 0
	if _, _, err := store.ReplayFrames(f, store.WALMagic, func(payload []byte) error {
		frames++
		if bytes.Contains(payload, []byte(`"n":[`)) {
			netlogFrames++
		}
		if !store.DecodesFastWAL(payload) {
			t.Errorf("WAL frame %d falls back to json.Unmarshal: %.200s", frames, payload)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(segments) == 0 || lines == 0 || netlogFrames == 0 || frames == netlogFrames {
		t.Fatalf("directory too thin to cover the format: %d segments, %d lines, %d WAL frames (%d with netlogs)",
			len(segments), lines, frames, netlogFrames)
	}
}
