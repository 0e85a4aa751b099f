package telemetry

// Minimal, strict parser for the Prometheus text exposition format —
// the round-trip check for WritePrometheus and the validator behind
// the CI scrape smoke (internal/telemetry/promcheck). Strictness is
// the point: the renderer promises deterministic, sorted, duplicate-
// free output, so the parser fails on anything out of order rather
// than accepting whatever a lenient scraper would.

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromSeries is one sample line of an exposition stream.
type PromSeries struct {
	// Name is the full series name (for histograms, including the
	// _bucket/_sum/_count suffix).
	Name   string
	Labels map[string]string
	Value  float64
	// Raw preserves the exact value text, so integer series (every
	// series the registry renders) can be compared exactly even beyond
	// float64 precision.
	Raw string
	// Exemplar is the series' OpenMetrics exemplar, when one followed
	// the sample (`... # {trace_id="..."} value`).
	Exemplar *PromExemplar
}

// PromExemplar is one OpenMetrics exemplar: its label set (for the
// registry, a single trace_id) and the exemplified observation value.
type PromExemplar struct {
	Labels map[string]string
	Value  float64
	Raw    string
}

// PromFamily is one metric family: its declared type and every sample
// series, in stream order.
type PromFamily struct {
	Name   string
	Type   string
	Series []PromSeries
}

// PromDoc is a parsed exposition stream.
type PromDoc struct {
	// Families is keyed by family name; Names preserves stream order.
	Families map[string]*PromFamily
	Names    []string
}

// Series returns the sample with the given full name and exact label
// pairs, or nil.
func (d *PromDoc) Series(name string, labels ...string) *PromSeries {
	if len(labels)%2 != 0 {
		return nil
	}
	want := map[string]string{}
	for i := 0; i < len(labels); i += 2 {
		want[labels[i]] = labels[i+1]
	}
	fam := d.Families[promFamilyName(d, name)]
	if fam == nil {
		return nil
	}
	for i := range fam.Series {
		s := &fam.Series[i]
		if s.Name != name || len(s.Labels) != len(want) {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s
		}
	}
	return nil
}

// Histograms rebuilds every instance of histogram family name from its
// cumulative _bucket, _sum and _count series, inverting
// WritePrometheus: a bucket's count is the rise of the cumulative count
// at its bound, and each exemplar returns to its bucket. The registry
// renders bounds, counts, sums and exemplar values as exact integers,
// so the rebuild of a registry scrape equals the registry's own
// HistogramFamily; any other value is an error. The result follows
// stream order and is nil when the family is absent.
func (d *PromDoc) Histograms(name string) ([]LabeledHistogram, error) {
	fam := d.Families[name]
	if fam == nil {
		return nil, nil
	}
	if fam.Type != "histogram" {
		return nil, fmt.Errorf("%s is a %s, not a histogram", name, fam.Type)
	}
	var (
		out []LabeledHistogram
		cur *HistogramSnapshot // instance being rebuilt; nil between instances
		cum uint64
	)
	for _, s := range fam.Series {
		v, err := strconv.ParseUint(s.Raw, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: value %q is not an integer count", s.Name, s.Raw)
		}
		switch s.Name {
		case name + "_sum":
			cur.Sum = v
		case name + "_count":
			if v != cum {
				return nil, fmt.Errorf("%s: %d disagrees with the +Inf bucket %d", s.Name, v, cum)
			}
			cur.Count = v
			cur = nil
		default: // _bucket: ParsePrometheus admits no other child
			if cur == nil {
				labels := maps.Clone(s.Labels)
				delete(labels, "le")
				if len(labels) == 0 {
					labels = nil // as the registry decodes an unlabeled key
				}
				out = append(out, LabeledHistogram{Labels: labels})
				cur, cum = &out[len(out)-1].Hist, 0
			}
			if v < cum {
				return nil, fmt.Errorf("%s: bucket counts not cumulative at le=%q", s.Name, s.Labels["le"])
			}
			if le := s.Labels["le"]; le != "+Inf" && v > cum {
				bound, err := strconv.ParseUint(le, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%s: le %q is not an integer bound", s.Name, le)
				}
				b := Bucket{Le: bound, N: v - cum}
				if s.Exemplar != nil {
					if b.ExemplarValue, err = strconv.ParseUint(s.Exemplar.Raw, 10, 64); err != nil {
						return nil, fmt.Errorf("%s: exemplar value %q is not an integer", s.Name, s.Exemplar.Raw)
					}
					b.ExemplarTraceID = s.Exemplar.Labels["trace_id"]
				}
				cur.Buckets = append(cur.Buckets, b)
			}
			cum = v
		}
	}
	return out, nil
}

// promFamilyName resolves a series name to its family: exact for
// counters and gauges, suffix-stripped for histogram children.
func promFamilyName(d *PromDoc, name string) string {
	if d.Families[name] != nil {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if f := d.Families[base]; f != nil && f.Type == "histogram" {
				return base
			}
		}
	}
	return name
}

// histState tracks the strict per-instance ordering of one histogram
// family: every instance's buckets (le ascending, counts cumulative,
// +Inf last), then _sum, then _count equal to the +Inf bucket.
type histState struct {
	instance   string // canonical labels (minus le) of the open instance
	phase      int    // 0 none, 1 buckets, 2 sum seen, 3 count seen
	lastLe     float64
	cum        float64
	infCount   float64
	lastClosed string // canonical labels of the last completed instance
}

// ParsePrometheus parses an exposition stream, enforcing the
// renderer's ordering contract: a # TYPE line precedes its series,
// family names appear in sorted order, series within a family are
// sorted by canonical label string with no duplicates, and histogram
// instances render complete cumulative bucket/sum/count blocks.
func ParsePrometheus(r io.Reader) (*PromDoc, error) {
	doc := &PromDoc{Families: map[string]*PromFamily{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var (
		cur      *PromFamily
		lastKey  string // last counter/gauge canonical label string
		hist     histState
		lineNo   int
		lastFam  string
		eofSeen  bool
		seenOnce = map[string]bool{}
	)
	closeHistogram := func() error {
		if cur != nil && cur.Type == "histogram" && hist.phase != 0 && hist.phase != 3 {
			return fmt.Errorf("histogram %s instance %s truncated (missing _sum/_count)", cur.Name, hist.instance)
		}
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if eofSeen {
			return nil, fmt.Errorf("line %d: content after # EOF", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			if line == "# EOF" {
				// OpenMetrics end-of-stream marker: nothing may follow.
				eofSeen = true
				continue
			}
			rest, ok := strings.CutPrefix(line, "# TYPE ")
			if !ok {
				continue // HELP and other comments
			}
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				return nil, fmt.Errorf("line %d: unsupported metric type %q", lineNo, typ)
			}
			if seenOnce[name] {
				return nil, fmt.Errorf("line %d: duplicate TYPE for family %q", lineNo, name)
			}
			if name <= lastFam && lastFam != "" {
				return nil, fmt.Errorf("line %d: family %q out of sorted order (after %q)", lineNo, name, lastFam)
			}
			if err := closeHistogram(); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			seenOnce[name] = true
			lastFam = name
			cur = &PromFamily{Name: name, Type: typ}
			doc.Families[name] = cur
			doc.Names = append(doc.Names, name)
			lastKey = ""
			hist = histState{}
			continue
		}
		name, labels, raw, ex, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		val, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad sample value %q", lineNo, raw)
		}
		if cur == nil {
			return nil, fmt.Errorf("line %d: series %q before any TYPE line", lineNo, name)
		}
		// OpenMetrics permits exemplars on counters and histogram
		// buckets only.
		if ex != nil && (cur.Type == "gauge" || (cur.Type == "histogram" && name != cur.Name+"_bucket")) {
			return nil, fmt.Errorf("line %d: exemplar on %s series %q", lineNo, cur.Type, name)
		}
		switch cur.Type {
		case "counter", "gauge":
			if name != cur.Name {
				return nil, fmt.Errorf("line %d: series %q outside its family block (open family %q)", lineNo, name, cur.Name)
			}
			key := promCanonicalLabels(labels, "")
			if lastKey != "" || len(cur.Series) > 0 {
				if key == lastKey {
					return nil, fmt.Errorf("line %d: duplicate series %s%s", lineNo, name, key)
				}
				if key < lastKey {
					return nil, fmt.Errorf("line %d: series %s%s out of sorted order", lineNo, name, key)
				}
			}
			lastKey = key
		case "histogram":
			if err := promHistSample(cur, &hist, name, labels, val); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
		cur.Series = append(cur.Series, PromSeries{Name: name, Labels: labels, Value: val, Raw: raw, Exemplar: ex})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := closeHistogram(); err != nil {
		return nil, fmt.Errorf("line %d: %w", lineNo, err)
	}
	return doc, nil
}

// promHistSample advances one histogram family's strict instance state
// machine by one sample line.
func promHistSample(cur *PromFamily, h *histState, name string, labels map[string]string, val float64) error {
	inst := promCanonicalLabels(labels, "le")
	switch name {
	case cur.Name + "_bucket":
		le, ok := labels["le"]
		if !ok {
			return fmt.Errorf("bucket of %s missing le label", cur.Name)
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("bad le bound %q", le)
		}
		if h.phase == 0 || inst != h.instance {
			// A new instance opens: the previous one must be complete and
			// instances must arrive in sorted order.
			if h.phase != 0 && h.phase != 3 {
				return fmt.Errorf("histogram %s instance %s incomplete before %s", cur.Name, h.instance, inst)
			}
			if h.lastClosed != "" && inst <= h.lastClosed {
				return fmt.Errorf("histogram %s instance %s duplicate or out of sorted order", cur.Name, inst)
			}
			h.instance = inst
			h.phase = 1
			h.lastLe = math.Inf(-1)
			h.cum = 0
		} else if h.phase != 1 {
			return fmt.Errorf("histogram %s bucket after _sum for instance %s", cur.Name, inst)
		}
		if bound <= h.lastLe {
			return fmt.Errorf("histogram %s le %q out of ascending order", cur.Name, le)
		}
		if val < h.cum {
			return fmt.Errorf("histogram %s bucket counts not cumulative at le=%q", cur.Name, le)
		}
		h.lastLe = bound
		h.cum = val
		if math.IsInf(bound, 1) {
			h.infCount = val
		}
	case cur.Name + "_sum":
		if h.phase != 1 || inst != h.instance {
			return fmt.Errorf("histogram %s _sum without preceding buckets for %s", cur.Name, inst)
		}
		if !math.IsInf(h.lastLe, 1) {
			return fmt.Errorf("histogram %s instance %s missing +Inf bucket", cur.Name, inst)
		}
		h.phase = 2
	case cur.Name + "_count":
		if h.phase != 2 || inst != h.instance {
			return fmt.Errorf("histogram %s _count out of order for %s", cur.Name, inst)
		}
		if val != h.infCount {
			return fmt.Errorf("histogram %s _count %v disagrees with +Inf bucket %v", cur.Name, val, h.infCount)
		}
		h.phase = 3
		h.lastClosed = inst
	default:
		return fmt.Errorf("series %q outside its family block (open family %q)", name, cur.Name)
	}
	return nil
}

// promCanonicalLabels renders a label map as a canonical sorted k=v
// string, excluding one key (the histogram le bound).
func promCanonicalLabels(labels map[string]string, except string) string {
	if len(labels) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != except {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// parsePromSample parses one sample line: name, optional {labels}, the
// value text, and an optional trailing OpenMetrics exemplar
// (`# {labels} value`).
func parsePromSample(line string) (string, map[string]string, string, *PromExemplar, error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, "", nil, fmt.Errorf("malformed sample %q", line)
	}
	name := line[:i]
	if name == "" {
		return "", nil, "", nil, fmt.Errorf("malformed sample %q", line)
	}
	var labels map[string]string
	rest := line[i:]
	if rest[0] == '{' {
		var err error
		labels, rest, err = parsePromLabels(rest[1:])
		if err != nil {
			return "", nil, "", nil, err
		}
	}
	var ex *PromExemplar
	// The labels are consumed, so the first '#' left in the line opens
	// the exemplar.
	if j := strings.IndexByte(rest, '#'); j >= 0 {
		var err error
		ex, err = parsePromExemplar(strings.TrimLeft(rest[j+1:], " \t"))
		if err != nil {
			return "", nil, "", nil, err
		}
		rest = rest[:j]
	}
	raw := strings.TrimSpace(rest)
	if raw == "" || strings.ContainsAny(raw, " \t") {
		return "", nil, "", nil, fmt.Errorf("malformed sample value in %q", line)
	}
	return name, labels, raw, ex, nil
}

// parsePromExemplar parses `{labels} value [timestamp]` — the text
// after an exemplar's `#` separator.
func parsePromExemplar(s string) (*PromExemplar, error) {
	if !strings.HasPrefix(s, "{") {
		return nil, fmt.Errorf("malformed exemplar near %q (missing label set)", s)
	}
	labels, rest, err := parsePromLabels(s[1:])
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 2 {
		return nil, fmt.Errorf("malformed exemplar value near %q", rest)
	}
	val, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return nil, fmt.Errorf("bad exemplar value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return nil, fmt.Errorf("bad exemplar timestamp %q", fields[1])
		}
	}
	return &PromExemplar{Labels: labels, Value: val, Raw: fields[0]}, nil
}

// parsePromLabels parses `k="v",...}` (the opening brace already
// consumed), returning the labels and the remaining text.
func parsePromLabels(s string) (map[string]string, string, error) {
	labels := map[string]string{}
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return nil, "", fmt.Errorf("malformed label pair near %q", s)
		}
		key := s[:eq]
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("unquoted label value for %q", key)
		}
		s = s[1:]
		var val strings.Builder
		i := 0
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("unterminated label value for %q", key)
			}
			c := s[i]
			if c == '"' {
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("dangling escape in label value for %q", key)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("unknown escape \\%c in label value for %q", s[i+1], key)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[key]; dup {
			return nil, "", fmt.Errorf("duplicate label %q", key)
		}
		labels[key] = val.String()
		s = s[i+1:]
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		return nil, "", fmt.Errorf("malformed label list near %q", s)
	}
}
