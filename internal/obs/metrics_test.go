package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestMetricsCountersGaugesHistograms(t *testing.T) {
	m := NewMetrics()
	m.Inc("alarms")
	m.Add("alarms", 2)
	m.SetGauge("rss_kb", 1234.5)
	for _, v := range []uint64{1, 2, 3, 100, 1000} {
		m.Observe("cycles", v)
	}
	if got := m.Counter("alarms"); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if g, ok := m.Gauge("rss_kb"); !ok || g != 1234.5 {
		t.Errorf("gauge = %v %v", g, ok)
	}
	h := m.Histogram("cycles")
	if h.Count != 5 || h.Sum != 1106 || h.Min != 1 || h.Max != 1000 {
		t.Errorf("hist = %+v", h)
	}
	if mean := h.Mean(); math.Abs(mean-221.2) > 0.01 {
		t.Errorf("mean = %v", mean)
	}
	if q := h.Quantile(1.0); q < 1000 {
		t.Errorf("p100 upper bound %d < max 1000", q)
	}
	if q := h.Quantile(0.2); q > 1 {
		t.Errorf("p20 = %d, want <=1", q)
	}
}

func TestMetricsSnapshotAndJSON(t *testing.T) {
	m := NewMetrics()
	m.Inc("a")
	m.SetGauge("b", 0.5)
	m.Observe("h", 8)
	snap := m.Snapshot()
	for _, k := range []string{"a", "b", "h.count", "h.sum", "h.mean", "h.min", "h.max", "h.p95"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("snapshot missing %q", k)
		}
	}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded["a"] != 1 || decoded["h.sum"] != 8 {
		t.Errorf("decoded = %v", decoded)
	}

	// Deterministic output: two writes are byte-identical.
	var buf2 bytes.Buffer
	if err := m.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("WriteJSON is not deterministic")
	}
}

func TestMetricsMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Add("c", 1)
	b.Add("c", 2)
	b.SetGauge("g", 9)
	a.Observe("h", 4)
	b.Observe("h", 16)
	a.Merge(b)
	if got := a.Counter("c"); got != 3 {
		t.Errorf("merged counter = %d", got)
	}
	if g, _ := a.Gauge("g"); g != 9 {
		t.Errorf("merged gauge = %v", g)
	}
	h := a.Histogram("h")
	if h.Count != 2 || h.Sum != 20 || h.Min != 4 || h.Max != 16 {
		t.Errorf("merged hist = %+v", h)
	}
}

// TestHistQuantileClampedToMax is the regression test for the quantile
// upper bound: the power-of-two bucket boundary must be clamped to the
// observed Max, so q=1.0 can never report a value (up to 2×) larger than
// any real observation.
func TestHistQuantileClampedToMax(t *testing.T) {
	var h Hist
	h.observe(1000) // bucket 10, boundary 1023
	if q := h.Quantile(1.0); q != 1000 {
		t.Errorf("p100 of {1000} = %d, want exactly 1000", q)
	}
	h.observe(3)
	if q := h.Quantile(0.5); q != 3 {
		t.Errorf("p50 of {3, 1000} = %d, want 3 (unclamped boundary)", q)
	}
	if q := h.Quantile(1.0); q != 1000 {
		t.Errorf("p100 of {3, 1000} = %d, want 1000", q)
	}
}

// TestMetricsMergeMinHandling is the table test for histogram Min
// merging: an empty destination's zero Min must not win the min-merge,
// and an empty source must not poison the destination.
func TestMetricsMergeMinHandling(t *testing.T) {
	hist := func(vals ...uint64) *Metrics {
		m := NewMetrics()
		for _, v := range vals {
			m.Observe("h", v)
		}
		if len(vals) == 0 {
			// Force an empty histogram to exist (Count==0, Min==0): a
			// cell that shows in the exports without an observation.
			c := m.HistCell("h")
			c.mu.Lock()
			c.live = true
			c.mu.Unlock()
		}
		return m
	}
	tests := []struct {
		name     string
		dst, src *Metrics
		wantMin  uint64
		wantCnt  uint64
	}{
		{"empty dest takes src min", hist(), hist(100, 200), 100, 2},
		{"empty src leaves dst min", hist(100, 200), hist(), 100, 2},
		{"both empty", hist(), hist(), 0, 0},
		{"smaller src min wins", hist(100), hist(50), 50, 2},
		{"larger src min loses", hist(50), hist(100), 50, 2},
		{"absent dest copies src", NewMetrics(), hist(70), 70, 1},
	}
	for _, tc := range tests {
		tc.dst.Merge(tc.src)
		h := tc.dst.Histogram("h")
		if h.Min != tc.wantMin || h.Count != tc.wantCnt {
			t.Errorf("%s: min=%d count=%d, want min=%d count=%d",
				tc.name, h.Min, h.Count, tc.wantMin, tc.wantCnt)
		}
	}
}

func TestMetricsMergedHistogram(t *testing.T) {
	m := NewMetrics()
	m.Observe("rendezvous.cycles{category=ret_only}", 100)
	m.Observe("rendezvous.cycles{category=ret_buf}", 4000)
	m.Observe("rendezvous.cycles{category=special}", 50)
	m.Observe("other.cycles", 1<<40)
	h := m.MergedHistogram("rendezvous.cycles")
	if h.Count != 3 || h.Sum != 4150 || h.Min != 50 || h.Max != 4000 {
		t.Errorf("merged = %+v", h)
	}
	if h := m.MergedHistogram("nope"); h.Count != 0 {
		t.Errorf("no-match merge = %+v", h)
	}
	var nilM *Metrics
	if h := nilM.MergedHistogram("x"); h.Count != 0 {
		t.Error("nil metrics merged histogram non-zero")
	}
}

func TestMetricsTableText(t *testing.T) {
	m := NewMetrics()
	m.Inc("z.last")
	m.Inc("a.first")
	txt := m.TableText()
	if !strings.Contains(txt, "a.first") || !strings.Contains(txt, "z.last") {
		t.Fatalf("table missing rows:\n%s", txt)
	}
	if strings.Index(txt, "a.first") > strings.Index(txt, "z.last") {
		t.Error("table not sorted")
	}
}
