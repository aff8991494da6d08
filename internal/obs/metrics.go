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
	"sync/atomic"
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

// Metrics is a registry of named counters, gauges, and histograms. It
// stores one cell per name, and a cell is the name's one storage: a hot
// site resolves the cells it updates once (HistCell, CounterCell,
// GaugeCell) and updates them without a name lookup or the registry's
// lock, while Observe, Add, Inc and SetGauge resolve the cell by name on
// every call, for cold paths and replay. A resolved cell that nothing has
// updated does not appear in any export. All methods are nil-safe so
// instrumentation can run unconditionally against a disabled recorder's
// nil registry, and so are the cells' methods on the nil cells a nil
// registry hands out.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*CounterCell
	gauges   map[string]*GaugeCell
	hists    map[string]*HistCell
	resolves uint64
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*CounterCell),
		gauges:   make(map[string]*GaugeCell),
		hists:    make(map[string]*HistCell),
	}
}

// CounterCell is one counter's storage. live marks a counter that has
// been added to, even by 0: only a live cell is exported.
type CounterCell struct {
	v    atomic.Uint64
	live atomic.Bool
}

// Add adds delta to the counter.
func (c *CounterCell) Add(delta uint64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
	if !c.live.Load() {
		c.live.Store(true)
	}
}

// Inc adds 1 to the counter.
func (c *CounterCell) Inc() { c.Add(1) }

// GaugeCell is one gauge's storage, exported once it has been set.
type GaugeCell struct {
	bits atomic.Uint64
	live atomic.Bool
}

// Set sets the gauge to v.
func (g *GaugeCell) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	if !g.live.Load() {
		g.live.Store(true)
	}
}

func (g *GaugeCell) value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistCell is one histogram's storage, under a lock of its own so that
// observers of different histograms never contend. It is exported once it
// has been observed or merged into.
type HistCell struct {
	mu   sync.Mutex
	h    Hist
	live bool
}

// Observe adds one observation to the histogram.
func (c *HistCell) Observe(v uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.h.observe(v)
	c.live = true
	c.mu.Unlock()
}

// read returns a copy of the histogram and whether it is exported.
func (c *HistCell) read() (Hist, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.h, c.live
}

// merge folds src into the histogram and marks it exported.
func (c *HistCell) merge(src *Hist) {
	c.mu.Lock()
	mergeHist(&c.h, src)
	c.live = true
	c.mu.Unlock()
}

// resolve returns name's cell in cells, creating it on first use, and
// counts the lookup.
func resolve[C any](m *Metrics, cells map[string]*C, name string) *C {
	m.mu.Lock()
	m.resolves++
	c := cells[name]
	if c == nil {
		c = new(C)
		cells[name] = c
	}
	m.mu.Unlock()
	return c
}

// lookup returns name's cell in cells, or nil, and counts the lookup.
func lookup[C any](m *Metrics, cells map[string]*C, name string) *C {
	m.mu.Lock()
	m.resolves++
	c := cells[name]
	m.mu.Unlock()
	return c
}

// CounterCell resolves the counter name to its cell (nil on a nil
// registry). The cell stays the name's storage for the registry's life.
func (m *Metrics) CounterCell(name string) *CounterCell {
	if m == nil {
		return nil
	}
	return resolve(m, m.counters, name)
}

// GaugeCell resolves the gauge name to its cell (nil on a nil registry).
func (m *Metrics) GaugeCell(name string) *GaugeCell {
	if m == nil {
		return nil
	}
	return resolve(m, m.gauges, name)
}

// HistCell resolves the histogram name to its cell (nil on a nil
// registry).
func (m *Metrics) HistCell(name string) *HistCell {
	if m == nil {
		return nil
	}
	return resolve(m, m.hists, name)
}

// Resolves returns how many name lookups the registry has made: one per
// cell resolved and one per call by name, reads included. A hot path
// that holds its cells adds nothing to it.
func (m *Metrics) Resolves() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resolves
}

// Inc adds 1 to a counter.
func (m *Metrics) Inc(name string) { m.Add(name, 1) }

// Add adds delta to a counter.
func (m *Metrics) Add(name string, delta uint64) { m.CounterCell(name).Add(delta) }

// SetGauge sets a gauge to v.
func (m *Metrics) SetGauge(name string, v float64) { m.GaugeCell(name).Set(v) }

// Observe adds one observation to a histogram.
func (m *Metrics) Observe(name string, v uint64) { m.HistCell(name).Observe(v) }

// Counter returns a counter's value.
func (m *Metrics) Counter(name string) uint64 {
	if m == nil {
		return 0
	}
	if c := lookup(m, m.counters, name); c != nil {
		return c.v.Load()
	}
	return 0
}

// Gauge returns a gauge's value.
func (m *Metrics) Gauge(name string) (float64, bool) {
	if m == nil {
		return 0, false
	}
	if g := lookup(m, m.gauges, name); g != nil && g.live.Load() {
		return g.value(), true
	}
	return 0, false
}

// Histogram returns a copy of a histogram (zero value if absent).
func (m *Metrics) Histogram(name string) Hist {
	if m == nil {
		return Hist{}
	}
	if c := lookup(m, m.hists, name); c != nil {
		h, _ := c.read()
		return h
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
	c := lookup(m, m.hists, name)
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.h.Sum
}

// each calls the given functions on every exported metric, under the
// registry's lock: counters first, then gauges, then histograms, so a
// gauge that shares a counter's name wins in Snapshot as it always has.
func (m *Metrics) each(counter func(string, uint64), gauge func(string, float64), hist func(string, *Hist)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, c := range m.counters {
		if c.live.Load() {
			counter(k, c.v.Load())
		}
	}
	for k, g := range m.gauges {
		if g.live.Load() {
			gauge(k, g.value())
		}
	}
	for k, c := range m.hists {
		if h, live := c.read(); live {
			hist(k, &h)
		}
	}
}

// Snapshot flattens the registry into metric-name → value pairs. Counters
// keep their name, gauges keep theirs, and each histogram expands into
// .count, .sum, .mean, .min, .max and .p95 entries.
func (m *Metrics) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if m == nil {
		return out
	}
	m.each(func(k string, v uint64) { out[k] = float64(v) },
		func(k string, v float64) { out[k] = v },
		func(k string, h *Hist) {
			out[k+".count"] = float64(h.Count)
			out[k+".sum"] = float64(h.Sum)
			out[k+".mean"] = h.Mean()
			out[k+".min"] = float64(h.Min)
			out[k+".max"] = float64(h.Max)
			out[k+".p95"] = float64(h.Quantile(0.95))
		})
	return out
}

// Merge copies every metric from src into m (counters add, gauges
// overwrite, histograms merge bucket-wise), through m's cells, so a cell
// a caller already holds sees the merged values.
func (m *Metrics) Merge(src *Metrics) {
	if m == nil || src == nil {
		return
	}
	counters := make(map[string]uint64)
	gauges := make(map[string]float64)
	hists := make(map[string]Hist)
	src.each(func(k string, v uint64) { counters[k] = v },
		func(k string, v float64) { gauges[k] = v },
		func(k string, h *Hist) { hists[k] = *h })
	for k, v := range counters {
		m.CounterCell(k).Add(v)
	}
	for k, v := range gauges {
		m.GaugeCell(k).Set(v)
	}
	for k, h := range hists {
		m.HistCell(k).merge(&h)
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
	for k, c := range m.hists {
		if strings.HasPrefix(k, prefix) {
			c.mu.Lock()
			mergeHist(&out, &c.h)
			c.mu.Unlock()
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
