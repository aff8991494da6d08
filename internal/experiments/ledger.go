package experiments

import (
	"fmt"
	"strings"

	"smvx/internal/core"
	"smvx/internal/obs"
	"smvx/internal/obs/ledger"
)

// The ledger experiment quantifies what the bounded run-ahead ring buys and
// where the remaining cycles go: the pipe app runs under strict lockstep
// and under pipelined lockstep at the default lag window. Each row reports
// the leader's mean rendezvous cost per libc call (the
// rendezvous.leader.cycles histogram, recorded identically in both modes)
// and its reduction against strict, then the rendezvous cost ledger's
// breakdown of that cost — which phase of which sync class carries the
// cycles, and how many heap allocations ride along per call. The row
// cross-checks itself: the ledger's leader-side sync phases must reconcile
// with the histogram.

// LedgerPhase is one phase's totals, aggregated across regions, sync
// classes, and variants.
type LedgerPhase struct {
	Phase  string
	Count  uint64
	Cycles uint64
	Allocs uint64
	Bytes  uint64
}

// LedgerResult is the phase-level cost accounting across lockstep
// configurations.
type LedgerResult struct {
	Seed int64
	Rows []Cell
}

// ledgerLabel names a ledger row: "strict", or "lag", sep, and the window
// for a pipelined row ("lag=16" in the table, "lag16" in metric keys).
func ledgerLabel(c *Cell, sep string) string {
	if c.Mode == core.LockstepStrict {
		return "strict"
	}
	return fmt.Sprintf("lag%s%d", sep, core.DefaultLagWindow)
}

// phaseBreakdown folds the ledger snapshot's (region, phase, class,
// variant) cells down to per-phase totals, in hot-path order.
func phaseBreakdown(led *ledger.Ledger) []LedgerPhase {
	byPhase := make(map[string]*LedgerPhase)
	for _, rs := range led.Snapshot().Regions {
		for _, cl := range rs.Cells {
			ph := byPhase[cl.Phase]
			if ph == nil {
				ph = &LedgerPhase{Phase: cl.Phase}
				byPhase[cl.Phase] = ph
			}
			ph.Count += cl.Count
			ph.Cycles += cl.Cycles
			ph.Allocs += cl.Allocs
			ph.Bytes += cl.Bytes
		}
	}
	var out []LedgerPhase
	for p := ledger.Phase(0); p < ledger.NumPhases; p++ {
		if ph := byPhase[p.String()]; ph != nil {
			out = append(out, *ph)
		}
	}
	return out
}

// ledgerSlice is the pipe app under strict lockstep, then pipelined at the
// default lag window.
func ledgerSlice() []Scenario {
	var scs []Scenario
	for _, mode := range lockstepModes {
		s := baseScenario
		s.App, s.Mode = pipeEnv, mode
		scs = append(scs, s)
	}
	return scs
}

// LedgerBreakdown runs the phase-level cost accounting across the lockstep
// modes. The region is honest, so every row must keep its leader.
func LedgerBreakdown() (*LedgerResult, error) {
	rows, err := runSlice(Seed, ledgerSlice())
	if err == nil {
		err = mustSurvive(rows)
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return &LedgerResult{Seed: Seed, Rows: rows}, nil
}

// reductionPct is row's rendezvous-mean improvement over the strict row,
// in percent.
func (r *LedgerResult) reductionPct(row *Cell) float64 {
	strict := findCell(r.Rows, func(c *Cell) bool { return c.Mode == core.LockstepStrict })
	if strict == nil || strict.RendezvousMean <= 0 {
		return 0
	}
	return (1 - row.RendezvousMean/strict.RendezvousMean) * 100
}

// String renders the per-configuration phase tables.
func (r *LedgerResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rendezvous cost ledger (seed %d): phase-level cycle/alloc accounting, %d regions x %d-call loop, open/close barriers\n",
		r.Seed, defaultRegions, pipeLoopIters*4+2)
	for i := range r.Rows {
		row := &r.Rows[i]
		fmt.Fprintf(&b, "\n%s: %d calls, %d cycles, %.2f allocs/call, rendezvous mean %.0f cyc/call (%.1f%% below strict), %d alarms, reconcile %.2f%%\n",
			ledgerLabel(row, "="), row.Calls, row.LedgerCycles, row.AllocsPerCall, row.RendezvousMean,
			r.reductionPct(row), len(row.Alarms), row.ReconcilePct)
		fmt.Fprintf(&b, "  %-11s %8s %12s %10s %8s %10s\n", "phase", "count", "cycles", "cyc/call", "allocs", "bytes")
		for _, ph := range row.Phases {
			per := float64(0)
			if ph.Count > 0 {
				per = float64(ph.Cycles) / float64(ph.Count)
			}
			fmt.Fprintf(&b, "  %-11s %8d %12d %10.1f %8d %10d\n",
				ph.Phase, ph.Count, ph.Cycles, per, ph.Allocs, ph.Bytes)
		}
	}
	return b.String()
}

// RecordMetrics folds the accounting into the benchmark registry.
// Allocation counts are deliberately NOT gated tightly: the probe reads a
// process-global runtime counter, so absolute values are
// environment-noisy; allocs_per_call is recorded for trend-watching.
func (r *LedgerResult) RecordMetrics(bench *obs.Metrics) {
	for i := range r.Rows {
		row := &r.Rows[i]
		prefix := "ledger." + ledgerLabel(row, "") + "."
		bench.SetGauge(prefix+"calls", float64(row.Calls))
		bench.SetGauge(prefix+"cycles_total", float64(row.LedgerCycles))
		bench.SetGauge(prefix+"allocs_per_call", row.AllocsPerCall)
		bench.SetGauge(prefix+"reconcile_pct", row.ReconcilePct)
		bench.SetGauge(prefix+"rendezvous_cycles_mean", row.RendezvousMean)
		for _, ph := range row.Phases {
			bench.SetGauge(prefix+"phase."+ph.Phase+".count", float64(ph.Count))
			bench.SetGauge(prefix+"phase."+ph.Phase+".cycles", float64(ph.Cycles))
		}
	}
}
