package obs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// exports renders every export of m: Snapshot (through WriteJSON),
// TableText, WritePrometheus, what Merge carries into an empty registry,
// and MergedHistogram over every name.
func exports(t *testing.T, m *Metrics) string {
	t.Helper()
	var js, prom, merged bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	into := NewMetrics()
	into.Merge(m)
	if err := into.WriteJSON(&merged); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%v\n%s\n%s\n%s\n%s\n%+v", m.Snapshot(), js.String(), m.TableText(), prom.String(),
		merged.String(), m.MergedHistogram(""))
}

// TestResolvedCellsExportNothing: a cell resolved but never updated shows
// in no export, in an empty registry and next to updated metrics alike.
func TestResolvedCellsExportNothing(t *testing.T) {
	resolveAll := func(m *Metrics) {
		m.HistCell("rendezvous.cycles{category=ret_only}")
		m.CounterCell("lockstep.barrier")
		m.GaugeCell("pipeline.depth")
	}
	empty, resolved := NewMetrics(), NewMetrics()
	resolveAll(resolved)
	if got, want := exports(t, resolved), exports(t, empty); got != want {
		t.Errorf("resolved cells export\n%s\nwant an empty registry's\n%s", got, want)
	}

	fill := func(m *Metrics) {
		m.Inc("syscall.total")
		m.SetGauge("rss_kb", 12)
		m.Observe("rendezvous.cycles{category=ret_buf}", 300)
	}
	plain, mixed := NewMetrics(), NewMetrics()
	fill(plain)
	resolveAll(mixed)
	fill(mixed)
	if got, want := exports(t, mixed), exports(t, plain); got != want {
		t.Errorf("updated metrics next to resolved cells export\n%s\nwant\n%s", got, want)
	}
	if _, ok := mixed.Gauge("pipeline.depth"); ok {
		t.Error("an unset gauge cell reads as set")
	}

	// Merging resolved cells into a registry leaves its exports alone.
	before := exports(t, plain)
	plain.Merge(resolved)
	if got := exports(t, plain); got != before {
		t.Errorf("merging resolved cells changed the exports:\n%s\nwant\n%s", got, before)
	}
}

// TestAddZeroExportsKey: Add(name, 0) creates the counter, at 0, by name
// and through its cell.
func TestAddZeroExportsKey(t *testing.T) {
	m := NewMetrics()
	m.Add("by.name", 0)
	m.CounterCell("by.cell").Add(0)
	snap := m.Snapshot()
	for _, k := range []string{"by.name", "by.cell"} {
		if v, ok := snap[k]; !ok || v != 0 {
			t.Errorf("Snapshot()[%q] = %v, %v; want 0, true", k, v, ok)
		}
	}
	var prom bytes.Buffer
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"smvx_by_name 0\n", "smvx_by_cell 0\n"} {
		if !bytes.Contains(prom.Bytes(), []byte(line)) {
			t.Errorf("Prometheus export lacks %q:\n%s", line, prom.String())
		}
	}
}

// TestMergeUpdatesHeldCells: Merge folds into the cells callers already
// hold, and later updates through them show in the registry.
func TestMergeUpdatesHeldCells(t *testing.T) {
	dst := NewMetrics()
	h, c, g := dst.HistCell("h"), dst.CounterCell("c"), dst.GaugeCell("g")
	h.Observe(10)
	src := NewMetrics()
	src.Observe("h", 5)
	src.Add("c", 3)
	src.SetGauge("g", 2.5)
	dst.Merge(src)
	if got, _ := h.read(); got.Count != 2 || got.Min != 5 || got.Max != 10 || got.Sum != 15 {
		t.Errorf("held histogram after Merge = %+v", got)
	}
	if got := c.v.Load(); got != 3 {
		t.Errorf("held counter after Merge = %d, want 3", got)
	}
	if got := g.value(); got != 2.5 {
		t.Errorf("held gauge after Merge = %v, want 2.5", got)
	}
	c.Inc()
	if got := dst.Counter("c"); got != 4 {
		t.Errorf("Counter after an update through the held cell = %d, want 4", got)
	}
}

// TestCellObserveDuringExports: two goroutines observing one cell, one by
// its name, while Snapshot and WritePrometheus run, lose no observation.
// Run it under -race.
func TestCellObserveDuringExports(t *testing.T) {
	const per = 2000
	m := NewMetrics()
	cell := m.HistCell("shared")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			cell.Observe(uint64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			m.Observe("shared", uint64(i))
		}
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for exporting := true; exporting; {
		select {
		case <-done:
			exporting = false
		default:
		}
		_ = m.Snapshot()
		var prom bytes.Buffer
		if err := m.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
	}
	if h := m.Histogram("shared"); h.Count != 2*per || h.Sum != 2*(per*(per-1)/2) {
		t.Errorf("count %d sum %d, want %d and %d", h.Count, h.Sum, 2*per, per*(per-1))
	}
}

// BenchmarkMetrics is one histogram observation, by name (the registry's
// lock and a map lookup, then the cell's lock) against through a cell
// resolved once (the cell's lock alone): on one goroutine, and split
// across two goroutines on distinct cells and on one shared cell.
func BenchmarkMetrics(b *testing.B) {
	names := [2]string{"libc.cycles.read", "libc.cycles.write"}
	observers := []struct {
		name    string
		observe func(m *Metrics, g int) func(v uint64)
	}{
		{"by-name", func(m *Metrics, g int) func(uint64) {
			name := names[g]
			return func(v uint64) { m.Observe(name, v) }
		}},
		{"cell", func(m *Metrics, g int) func(uint64) {
			return m.HistCell(names[g]).Observe
		}},
	}
	layouts := []struct {
		name       string
		goroutines int
		shared     bool
	}{
		{"1g", 1, false},
		{"2g-distinct", 2, false},
		{"2g-shared", 2, true},
	}
	for _, o := range observers {
		for _, l := range layouts {
			b.Run(o.name+"/"+l.name, func(b *testing.B) {
				m := NewMetrics()
				fns := make([]func(uint64), l.goroutines)
				for g := range fns {
					cell := g
					if l.shared {
						cell = 0
					}
					fns[g] = o.observe(m, cell)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for g, fn := range fns {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := g; i < b.N; i += len(fns) {
							fn(uint64(i))
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
