package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// histBuckets is the number of power-of-two histogram buckets: bucket i
// holds observations v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i).
// 64 buckets cover the whole uint64 cycle range.
const histBuckets = 65

// Hist is a power-of-two-bucketed histogram of uint64 observations
// (cycle counts, byte volumes).
type Hist struct {
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
	Buckets [histBuckets]uint64
}

func (h *Hist) observe(v uint64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bits.Len64(v)]++
}

// Mean returns the average observation.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) from the
// bucket boundaries — coarse (power-of-two resolution) but allocation-free.
// The bound is clamped to the observed Max, so q=1.0 never reports a value
// larger than any real observation. Degenerate inputs stay total: an empty
// histogram answers 0 for every q, a NaN or non-positive q reads as the
// minimum rank, and q > 1 clamps to the maximum.
func (h *Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if math.IsNaN(q) || q <= 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank == 0 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen >= rank {
			if i == 0 {
				return 0
			}
			ub := uint64(1)<<uint(i) - 1
			if ub > h.Max {
				ub = h.Max
			}
			return ub
		}
	}
	return h.Max
}

// Metrics is a registry of named counters, gauges, and histograms. All
// methods are nil-safe so instrumentation can run unconditionally against
// a disabled recorder's nil registry.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]uint64
	gauges   map[string]float64
	hists    map[string]*Hist
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]uint64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Hist),
	}
}

// Inc adds 1 to a counter.
func (m *Metrics) Inc(name string) { m.Add(name, 1) }

// Add adds delta to a counter.
func (m *Metrics) Add(name string, delta uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// SetGauge sets a gauge to v.
func (m *Metrics) SetGauge(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// Observe adds one observation to a histogram.
func (m *Metrics) Observe(name string, v uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &Hist{}
		m.hists[name] = h
	}
	h.observe(v)
	m.mu.Unlock()
}

// Counter returns a counter's value.
func (m *Metrics) Counter(name string) uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Gauge returns a gauge's value.
func (m *Metrics) Gauge(name string) (float64, bool) {
	if m == nil {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.gauges[name]
	return v, ok
}

// Histogram returns a copy of a histogram (zero value if absent).
func (m *Metrics) Histogram(name string) Hist {
	if m == nil {
		return Hist{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.hists[name]; h != nil {
		return *h
	}
	return Hist{}
}

// HistSum returns a histogram's running Sum (0 if absent) — a cheap
// point-read for instrumentation that charges deltas of an accumulating
// series (the request span's MVX-overhead attribution) without copying
// the whole bucket array.
func (m *Metrics) HistSum(name string) uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.hists[name]; h != nil {
		return h.Sum
	}
	return 0
}

// Snapshot flattens the registry into metric-name → value pairs. Counters
// keep their name, gauges keep theirs, and each histogram expands into
// .count, .sum, .mean, .min, .max and .p95 entries.
func (m *Metrics) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if m == nil {
		return out
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.counters {
		out[k] = float64(v)
	}
	for k, v := range m.gauges {
		out[k] = v
	}
	for k, h := range m.hists {
		out[k+".count"] = float64(h.Count)
		out[k+".sum"] = float64(h.Sum)
		out[k+".mean"] = h.Mean()
		out[k+".min"] = float64(h.Min)
		out[k+".max"] = float64(h.Max)
		out[k+".p95"] = float64(h.Quantile(0.95))
	}
	return out
}

// Merge copies every metric from src into m (counters add, gauges
// overwrite, histograms merge bucket-wise).
func (m *Metrics) Merge(src *Metrics) {
	if m == nil || src == nil {
		return
	}
	src.mu.Lock()
	counters := make(map[string]uint64, len(src.counters))
	for k, v := range src.counters {
		counters[k] = v
	}
	gauges := make(map[string]float64, len(src.gauges))
	for k, v := range src.gauges {
		gauges[k] = v
	}
	hists := make(map[string]Hist, len(src.hists))
	for k, h := range src.hists {
		hists[k] = *h
	}
	src.mu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range counters {
		m.counters[k] += v
	}
	for k, v := range gauges {
		m.gauges[k] = v
	}
	for k, h := range hists {
		dst := m.hists[k]
		if dst == nil {
			hc := h
			m.hists[k] = &hc
			continue
		}
		mergeHist(dst, &h)
	}
}

// mergeHist folds src into dst bucket-wise. An empty dst (Count==0) has a
// meaningless zero Min that must not win the min-merge; an empty src
// contributes nothing.
func mergeHist(dst, src *Hist) {
	if src.Count == 0 {
		return
	}
	if dst.Count == 0 || src.Min < dst.Min {
		dst.Min = src.Min
	}
	if src.Max > dst.Max {
		dst.Max = src.Max
	}
	dst.Count += src.Count
	dst.Sum += src.Sum
	for i := range dst.Buckets {
		dst.Buckets[i] += src.Buckets[i]
	}
}

// MergedHistogram returns the bucket-wise merge of every histogram whose
// name begins with prefix — e.g. MergedHistogram("rendezvous.cycles")
// aggregates the per-category RTT histograms into one distribution.
// Returns the zero Hist if nothing matches.
func (m *Metrics) MergedHistogram(prefix string) Hist {
	var out Hist
	if m == nil {
		return out
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, h := range m.hists {
		if strings.HasPrefix(k, prefix) {
			mergeHist(&out, h)
		}
	}
	return out
}

// WriteJSON writes the snapshot as a deterministic (sorted-key) JSON
// object of metric name → value — the BENCH_experiments.json format.
func (m *Metrics) WriteJSON(w io.Writer) error {
	snap := m.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		kb, err := json.Marshal(k)
		if err != nil {
			return err
		}
		v := snap[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(&b, "  %s: %s", kb, formatJSONNumber(v))
		if i != len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// formatJSONNumber renders v without exponent notation for integral
// values, keeping the file diff-friendly.
func formatJSONNumber(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// TableText renders the registry as a sorted plain-text table.
func (m *Metrics) TableText() string {
	snap := m.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("metric                                                        value\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%-55s %12s\n", k, formatJSONNumber(snap[k]))
	}
	return b.String()
}
