package experiments

import (
	"fmt"
	"strings"

	"smvx/internal/apps/apputil"
	"smvx/internal/apps/lighttpd"
	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/obs"
	"smvx/internal/sim/clock"
)

// The fleet experiment is the paper's A⁸ throughput story told at request
// granularity: a closed-loop concurrency sweep (ab -c style) drives nginx
// and lighttpd under native, strict-lockstep, and pipelined configurations
// while per-request spans feed the obs.Fleet aggregate, and each cell's
// requests/sec plus latency percentiles land in BENCH_experiments.json. The
// paper reports sMVX web servers at 53–71% of native throughput; the
// sweep's pct-of-native column is the comparable figure here.

// fleetMode is one lockstep configuration column of the sweep.
type fleetMode struct {
	name string
	mon  bool
	lag  int
}

// fleetNginxModes is the full nginx axis; lighttpd runs the first two
// (its protected region is the whole state machine, where pipelining's
// barriers dominate and add nothing to the comparison). Pipelined runs at
// the default lag window only: the window never binds on this workload,
// so lags 4 and 64 measured identically.
var fleetNginxModes = []fleetMode{
	{name: "native"},
	{name: "strict", mon: true},
	{name: "lag16", mon: true, lag: 16},
}

// fleetApp is the sweep's app coordinate: the server with request
// tracking, its per-request protected root, and the modes it runs.
type fleetApp struct {
	name   string
	server func(total int, root string, track *apputil.RequestTracker) Server
	root   string
	modes  []fleetMode
}

var fleetApps = []fleetApp{
	{"nginx", func(n int, root string, track *apputil.RequestTracker) Server {
		return nginx.NewServer(nginx.Config{Port: Port, MaxRequests: n, Protect: root, Track: track})
	}, "ngx_http_process_request_line", fleetNginxModes},
	{"lighttpd", func(n int, root string, track *apputil.RequestTracker) Server {
		return lighttpd.NewServer(lighttpd.Config{Port: Port, MaxRequests: n, Protect: root, Track: track})
	}, "connection_state_machine", fleetNginxModes[:2]},
}

// FleetLevels is the default concurrency axis: the paper-style sweep is
// {1, 64, 1024, 8192}; CI runs the reduced {1, 64} via -fleet-c.
var FleetLevels = []int{1, 64}

// fleetTotalFor sizes a cell's request count from its concurrency:
// enough to saturate the level without making the full sweep minutes long.
func fleetTotalFor(c int) int {
	total := 2 * c
	if total < 64 {
		total = 64
	}
	if total > 512 {
		total = 512
	}
	return total
}

// FleetRow is one (app, mode, concurrency) cell.
type FleetRow struct {
	App         string  `json:"app"`
	Mode        string  `json:"mode"`
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	Completed   uint64  `json:"completed"`
	Aborted     uint64  `json:"aborted"`
	RPS         float64 `json:"rps"`
	// CyclesPerReq is the serial cost: elapsed server cycles over
	// completed requests — the lower-is-better number the gate watches
	// (RPS is its reciprocal scaled by the clock frequency).
	CyclesPerReq float64 `json:"cycles_per_request"`
	P50Cycles    uint64  `json:"p50_cycles"`
	P90Cycles    uint64  `json:"p90_cycles"`
	P99Cycles    uint64  `json:"p99_cycles"`
	P999Cycles   uint64  `json:"p999_cycles"`
	MaxCycles    uint64  `json:"max_cycles"`
	MVXMean      float64 `json:"mvx_mean_cycles"`
	// PctNative is this cell's throughput relative to the same app and
	// concurrency under the native mode.
	PctNative float64 `json:"pct_native"`
}

// FleetResult is the whole sweep.
type FleetResult struct {
	Seed   int64      `json:"seed"`
	Levels []int      `json:"levels"`
	Rows   []FleetRow `json:"rows"`
}

// fleetMonOpts builds the monitor options for a mode.
func fleetMonOpts(m fleetMode) []core.Option {
	if m.lag > 0 {
		return []core.Option{
			core.WithLockstepMode(core.LockstepPipelined),
			core.WithLagWindow(m.lag),
		}
	}
	return nil
}

// runFleetCell measures one (app, mode, concurrency) cell.
func runFleetCell(a fleetApp, m fleetMode, c int) (FleetRow, error) {
	total := fleetTotalFor(c)
	rec := obs.NewRecorder(obs.Config{})
	fleet := obs.NewFleet()
	fleet.SetRun(m.name)
	mode, root := Vanilla, ""
	if m.mon {
		mode, root = SMVX, a.root
	}
	r, err := Start(Launch{
		Server: a.server(total, root, &apputil.RequestTracker{App: a.name, Rec: rec, Fleet: fleet}),
		Mode:   mode, Seed: Seed,
		Boot: []boot.Option{boot.WithRecorder(rec)}, Monitor: monitor(fleetMonOpts(m)...),
	})
	if err != nil {
		return FleetRow{}, err
	}
	r.Load(total, c)
	if err := r.Wait(); err != nil {
		return FleetRow{}, fmt.Errorf("fleet %s c=%d: %w", m.name, c, err)
	}
	return fleetRowFrom(a.name, m.name, c, total, fleet), nil
}

// fleetRowFrom derives the row from the cell's fleet aggregate.
func fleetRowFrom(app, mode string, c, total int, fleet *obs.Fleet) FleetRow {
	row := FleetRow{App: app, Mode: mode, Concurrency: c, Requests: total}
	snap := fleet.Snapshot()
	if len(snap.Apps) == 0 {
		return row
	}
	a := snap.Apps[0]
	row.Completed = a.Completed
	row.Aborted = a.Aborted
	row.RPS = a.RPS
	if a.Completed > 0 && a.ElapsedCycles > 0 {
		row.CyclesPerReq = float64(a.ElapsedCycles) / float64(a.Completed)
	}
	row.P50Cycles = a.P50Cycles
	row.P90Cycles = a.P90Cycles
	row.P99Cycles = a.P99Cycles
	row.P999Cycles = a.P999Cycles
	row.MaxCycles = a.MaxCycles
	row.MVXMean = a.MVXMeanCycles
	return row
}

// FleetSweep runs the concurrency sweep across both servers and every
// lockstep mode, computing each cell's percent-of-native throughput.
func FleetSweep(levels []int) (*FleetResult, error) {
	if len(levels) == 0 {
		levels = FleetLevels
	}
	res := &FleetResult{Seed: Seed, Levels: levels}
	for _, c := range levels {
		for _, a := range fleetApps {
			// The native cell runs first and anchors the pct-of-native
			// column of the app's other cells at this level.
			var native float64
			for _, m := range a.modes {
				row, err := runFleetCell(a, m, c)
				if err != nil {
					return nil, err
				}
				if m.name == "native" {
					native = row.RPS
				}
				if native > 0 {
					row.PctNative = row.RPS / native * 100
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res, nil
}

// String renders the sweep table.
func (r *FleetResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet load sweep (seed %d): closed-loop clients, 4KB page, virtual %0.1fGHz clock\n",
		r.Seed, clock.FrequencyHz/1e9)
	fmt.Fprintf(&b, "%-9s %-7s %6s %5s %5s %10s %8s %9s %9s %9s %9s %10s\n",
		"app", "mode", "conc", "reqs", "done", "req/s", "pct", "p50", "p90", "p99", "p99.9", "mvx-mean")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s %-7s %6d %5d %5d %10.1f %7.1f%% %9d %9d %9d %9d %10.1f\n",
			row.App, row.Mode, row.Concurrency, row.Requests, row.Completed,
			row.RPS, row.PctNative, row.P50Cycles, row.P90Cycles, row.P99Cycles,
			row.P999Cycles, row.MVXMean)
	}
	return b.String()
}

// RecordMetrics folds the sweep into the benchmark registry. Completed is
// gated at zero tolerance (closed-loop: every sent request must be
// served); cycle costs get generous bands because interleaving at C>1 is
// scheduler-dependent; rps/pct_native are higher-is-better and ungated.
func (r *FleetResult) RecordMetrics(bench *obs.Metrics) {
	for _, row := range r.Rows {
		p := fmt.Sprintf("fleet.%s.%s.c%d.", row.App, row.Mode, row.Concurrency)
		bench.SetGauge(p+"completed", float64(row.Completed))
		bench.SetGauge(p+"cycles_per_request", row.CyclesPerReq)
		bench.SetGauge(p+"p50_cycles", float64(row.P50Cycles))
		bench.SetGauge(p+"p99_cycles", float64(row.P99Cycles))
		bench.SetGauge(p+"p999_cycles", float64(row.P999Cycles))
		bench.SetGauge(p+"max_cycles", float64(row.MaxCycles))
		bench.SetGauge(p+"mvx_mean_cycles", row.MVXMean)
		bench.SetGauge(p+"rps", row.RPS)
		bench.SetGauge(p+"pct_native", row.PctNative)
	}
}
