package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"smvx/internal/sim/clock"
)

// Fleet aggregates per-request latency spans into the requests/sec and
// tail-latency view ROADMAP item 4 demands: every number the system
// reported before this was denominated in cycles per protected call; the
// fleet table is denominated in requests.
//
// The design follows the cost ledger's replay discipline exactly: every
// live span start/end both updates the aggregate and mirrors one event
// (EvRequestStart/EvRequestEnd) into the flight recorder, both carrying
// the identical clock reading and payload, and the replay rebuild folds
// those events back through the same apply functions (TapEvent) — so the
// offline table is byte-for-byte the live one. A nil *Fleet is the disabled
// state: every method is a no-op.
type Fleet struct {
	mu       sync.Mutex
	lockstep string
	nextID   uint64
	apps     map[string]*fleetApp
	// maxTS is the newest event timestamp seen fleet-wide (starts and
	// ends, all apps) — the aggregate's notion of "now". The windowed
	// rate is anchored to it rather than to each app's own last
	// completion, so an app whose traffic stopped decays to 0 while the
	// rest of the fleet keeps moving. Because it is derived purely from
	// the event stream, live and replay agree on it byte-for-byte.
	maxTS clock.Cycles
}

// FleetWindowCycles is the windowed-throughput horizon: completions within
// the trailing 10 simulated milliseconds of the newest completion count
// toward window_rps — the steady-state rate, insulated from slow start-up.
const FleetWindowCycles = clock.FrequencyHz / 100

// fleetWindowCap bounds the per-app ring of recent completion timestamps
// the windowed rate is computed over.
const fleetWindowCap = 4096

// fleetApp is one application's aggregate.
type fleetApp struct {
	name      string
	started   uint64
	completed uint64
	aborted   uint64
	active    int64
	maxActive int64
	haveFirst bool
	firstTS   clock.Cycles
	lastTS    clock.Cycles
	lat       LatencyHist
	mvx       LatencyHist

	ends   [fleetWindowCap]clock.Cycles
	endPos int
	endLen int
}

// NewFleet creates an enabled, empty fleet aggregate.
func NewFleet() *Fleet {
	return &Fleet{apps: make(map[string]*fleetApp)}
}

// SetRun labels the fleet with the run's lockstep mode so snapshots are
// self-describing; replay reads the same label from the WAL meta.
func (f *Fleet) SetRun(lockstep string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.lockstep = lockstep
	f.mu.Unlock()
}

func (f *Fleet) appLocked(name string) *fleetApp {
	a := f.apps[name]
	if a == nil {
		a = &fleetApp{name: name}
		f.apps[name] = a
	}
	return a
}

// applyStartLocked is the single mutation path for a span start — live
// Begin and replay TapEvent both come through here with event-payload
// data only, which is what guarantees live/replay byte identity.
func (f *Fleet) applyStartLocked(app string, ts clock.Cycles) {
	if ts > f.maxTS {
		f.maxTS = ts
	}
	a := f.appLocked(app)
	a.started++
	a.active++
	if a.active > a.maxActive {
		a.maxActive = a.active
	}
	if !a.haveFirst {
		a.haveFirst = true
		a.firstTS = ts
	}
}

// applyEndLocked is the single mutation path for a span end.
func (f *Fleet) applyEndLocked(app string, ts clock.Cycles, dur, mvx uint64, served bool) {
	if ts > f.maxTS {
		f.maxTS = ts
	}
	a := f.appLocked(app)
	if a.active > 0 {
		a.active--
	}
	if ts > a.lastTS {
		a.lastTS = ts
	}
	if !served {
		a.aborted++
		return
	}
	a.completed++
	a.lat.Observe(dur)
	a.mvx.Observe(mvx)
	a.ends[a.endPos] = ts
	a.endPos = (a.endPos + 1) % fleetWindowCap
	if a.endLen < fleetWindowCap {
		a.endLen++
	}
}

// RequestSpan is one in-flight request, handed out by Begin and closed by
// End. The zero value (from a nil Fleet) is inert.
type RequestSpan struct {
	fleet *Fleet
	rec   *Recorder
	app   string
	id    uint64
	start clock.Cycles
	mvx0  uint64
}

// Begin opens a request span at accept time, stamping it with the
// recorder's current virtual-clock reading and recording an
// EvRequestStart event carrying the same timestamp.
func (f *Fleet) Begin(rec *Recorder, app string) RequestSpan {
	if f == nil {
		return RequestSpan{}
	}
	ts := rec.Now()
	f.mu.Lock()
	f.nextID++
	id := f.nextID
	f.applyStartLocked(app, ts)
	f.mu.Unlock()
	rec.RecordAt(ts, EvRequestStart, VariantNone, 0, app, id, 0, 0)
	return RequestSpan{
		fleet: f, rec: rec, app: app, id: id, start: ts,
		mvx0: rec.Metrics().HistSum(MetricRendezvousLeaderCycles),
	}
}

// End closes the span at connection teardown. served=true means a
// response was written; an aborted span (EOF, drain at shutdown) counts
// separately and does not pollute the latency distribution. The MVX
// attribution is the growth of the leader's rendezvous-cycle total over
// the span's lifetime.
func (sp RequestSpan) End(served bool) {
	if sp.fleet == nil {
		return
	}
	ts := sp.rec.Now()
	if ts < sp.start {
		ts = sp.start
	}
	dur := uint64(ts - sp.start)
	var mvx uint64
	if m := sp.rec.Metrics().HistSum(MetricRendezvousLeaderCycles); m > sp.mvx0 {
		mvx = m - sp.mvx0
	}
	sp.fleet.mu.Lock()
	sp.fleet.applyEndLocked(sp.app, ts, dur, mvx, served)
	sp.fleet.mu.Unlock()
	verdict := "served"
	if !served {
		verdict = "aborted"
	}
	sp.rec.RecordInAt(ts, verdict, EvRequestEnd, VariantNone, 0, sp.app, dur, mvx, sp.id)
	if served {
		sp.rec.ObserveSeries(SeriesFleetLatency, dur)
	}
}

// TapEvent is the fleet's Tap fold: it folds one recorded event into the
// aggregate. Non-request events are ignored.
func (f *Fleet) TapEvent(e Event) {
	if f == nil {
		return
	}
	switch e.Kind {
	case EvRequestStart:
		f.mu.Lock()
		f.applyStartLocked(e.Name, e.TS)
		f.mu.Unlock()
	case EvRequestEnd:
		f.mu.Lock()
		f.applyEndLocked(e.Name, e.TS, e.Arg0, e.Arg1, e.Fn == "served")
		f.mu.Unlock()
	}
}

// Totals sums the aggregate across apps — the /healthz inputs.
func (f *Fleet) Totals() (started, completed, aborted uint64, active int64) {
	if f == nil {
		return 0, 0, 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range f.apps {
		started += a.started
		completed += a.completed
		aborted += a.aborted
		active += a.active
	}
	return started, completed, aborted, active
}

// MergedLatency returns the cross-app served-latency distribution — the
// request p99 /healthz reports and holds to its ceiling.
func (f *Fleet) MergedLatency() LatencyHist {
	var out LatencyHist
	if f == nil {
		return out
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range f.apps {
		h := a.lat
		out.Merge(&h)
	}
	return out
}

// FleetAppSnapshot is one application's row in a snapshot.
type FleetAppSnapshot struct {
	App            string  `json:"app"`
	Started        uint64  `json:"started"`
	Completed      uint64  `json:"completed"`
	Aborted        uint64  `json:"aborted"`
	Active         int64   `json:"active"`
	MaxConcurrency int64   `json:"max_concurrency"`
	ElapsedCycles  uint64  `json:"elapsed_cycles"`
	RPS            float64 `json:"rps"`
	WindowRPS      float64 `json:"window_rps"`
	MeanCycles     float64 `json:"latency_mean_cycles"`
	P50Cycles      uint64  `json:"latency_p50_cycles"`
	P90Cycles      uint64  `json:"latency_p90_cycles"`
	P99Cycles      uint64  `json:"latency_p99_cycles"`
	P999Cycles     uint64  `json:"latency_p999_cycles"`
	MaxCycles      uint64  `json:"latency_max_cycles"`
	MVXMeanCycles  float64 `json:"mvx_mean_cycles"`
}

// FleetSnapshot is a deterministic point-in-time copy of the aggregate:
// apps sorted by name, every derived rate computed with the same
// arithmetic live and offline.
type FleetSnapshot struct {
	Lockstep string             `json:"lockstep"`
	Apps     []FleetAppSnapshot `json:"apps"`
}

// Snapshot copies and derives the aggregate.
func (f *Fleet) Snapshot() FleetSnapshot {
	if f == nil {
		return FleetSnapshot{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	snap := FleetSnapshot{Lockstep: f.lockstep}
	names := make([]string, 0, len(f.apps))
	for name := range f.apps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := f.apps[name]
		row := FleetAppSnapshot{
			App:            a.name,
			Started:        a.started,
			Completed:      a.completed,
			Aborted:        a.aborted,
			Active:         a.active,
			MaxConcurrency: a.maxActive,
			MeanCycles:     a.lat.Mean(),
			P50Cycles:      a.lat.Quantile(0.50),
			P90Cycles:      a.lat.Quantile(0.90),
			P99Cycles:      a.lat.Quantile(0.99),
			P999Cycles:     a.lat.Quantile(0.999),
			MaxCycles:      a.lat.Max,
			MVXMeanCycles:  a.mvx.Mean(),
		}
		if a.haveFirst && a.lastTS > a.firstTS {
			row.ElapsedCycles = uint64(a.lastTS - a.firstTS)
		}
		if row.ElapsedCycles > 0 {
			row.RPS = float64(a.completed) / (float64(row.ElapsedCycles) / clock.FrequencyHz)
		}
		// Windowed rate: completions within the trailing window of the
		// fleet-wide newest event — not this app's own last completion,
		// which would freeze the rate forever once its traffic stops.
		// An app idle for longer than the window reports 0.
		if a.endLen > 0 {
			horizon := clock.Cycles(0)
			if f.maxTS > FleetWindowCycles {
				horizon = f.maxTS - FleetWindowCycles
			}
			var inWindow uint64
			for i := 0; i < a.endLen; i++ {
				if a.ends[i] > horizon {
					inWindow++
				}
			}
			span := uint64(f.maxTS - horizon)
			if span > uint64(row.ElapsedCycles) && row.ElapsedCycles > 0 {
				span = row.ElapsedCycles
			}
			if span > 0 {
				row.WindowRPS = float64(inWindow) / (float64(span) / clock.FrequencyHz)
			}
		}
		snap.Apps = append(snap.Apps, row)
	}
	return snap
}

// WriteJSON writes the snapshot as deterministic indented JSON — the
// /fleet endpoint body.
func (f *Fleet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Snapshot())
}

// PublishTo exports the snapshot into m as labeled gauges —
// fleet.*{app=,lockstep=} — the series the Prometheus exporter serves as
// smvx_fleet_*. Scrape-time only; not part of the span hot path.
func (f *Fleet) PublishTo(m *Metrics) {
	if f == nil || m == nil {
		return
	}
	snap := f.Snapshot()
	lockstep := snap.Lockstep
	if lockstep == "" {
		lockstep = "-"
	}
	for _, a := range snap.Apps {
		labels := "{app=" + a.App + ",lockstep=" + lockstep + "}"
		m.SetGauge("fleet.requests.started"+labels, float64(a.Started))
		m.SetGauge("fleet.requests.completed"+labels, float64(a.Completed))
		m.SetGauge("fleet.requests.aborted"+labels, float64(a.Aborted))
		m.SetGauge("fleet.inflight"+labels, float64(a.Active))
		m.SetGauge("fleet.max_concurrency"+labels, float64(a.MaxConcurrency))
		m.SetGauge("fleet.rps"+labels, a.RPS)
		m.SetGauge("fleet.window_rps"+labels, a.WindowRPS)
		m.SetGauge("fleet.latency.mean_cycles"+labels, a.MeanCycles)
		m.SetGauge("fleet.latency.p50_cycles"+labels, float64(a.P50Cycles))
		m.SetGauge("fleet.latency.p90_cycles"+labels, float64(a.P90Cycles))
		m.SetGauge("fleet.latency.p99_cycles"+labels, float64(a.P99Cycles))
		m.SetGauge("fleet.latency.p999_cycles"+labels, float64(a.P999Cycles))
		m.SetGauge("fleet.latency.max_cycles"+labels, float64(a.MaxCycles))
		m.SetGauge("fleet.mvx.mean_cycles"+labels, a.MVXMeanCycles)
	}
}

// TableText renders the snapshot as the ledger-style summary table the
// CLI prints on shutdown and replay regenerates byte-for-byte.
func (f *Fleet) TableText() string {
	snap := f.Snapshot()
	lockstep := snap.Lockstep
	if lockstep == "" {
		lockstep = "-"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fleet request summary (lockstep=%s)\n", lockstep)
	b.WriteString("app              served  aborted  inflight  max-conc        req/s   window-r/s         p50         p90         p99       p99.9         max    mvx-mean\n")
	for _, a := range snap.Apps {
		fmt.Fprintf(&b, "%-15s %7d %8d %9d %9d %12.1f %12.1f %11d %11d %11d %11d %11d %11.1f\n",
			a.App, a.Completed, a.Aborted, a.Active, a.MaxConcurrency,
			a.RPS, a.WindowRPS,
			a.P50Cycles, a.P90Cycles, a.P99Cycles, a.P999Cycles, a.MaxCycles,
			a.MVXMeanCycles)
	}
	return b.String()
}
