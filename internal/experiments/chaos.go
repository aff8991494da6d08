package experiments

import (
	"fmt"
	"strings"

	"smvx/internal/core"
	"smvx/internal/obs"
)

// The chaos suite exercises the divergence-response policies against the
// fault-injection harness: every (fault, policy) pair runs the chaos app
// and the matrix records whether the leader survived, what alarms fired,
// and whether the policy detached or restarted the follower.

// chaosPolicies is the policy axis of the matrix.
var chaosPolicies = []core.DivergencePolicy{
	core.PolicyKillBoth,
	core.PolicyLeaderContinue,
	core.PolicyRestartFollower,
}

// ChaosResult is the full survival matrix.
type ChaosResult struct {
	Seed  int64
	Mode  core.LockstepMode
	Cells []Cell
}

// Chaos runs the full fault x policy survival matrix under strict lockstep.
// Every cell is an independent deterministic simulation; the same seed
// reproduces the same matrix byte-for-byte.
func Chaos(seed int64) (*ChaosResult, error) {
	return ChaosMode(seed, core.LockstepStrict)
}

// chaosSlice is the fault x policy matrix under one lockstep mode.
func chaosSlice(mode core.LockstepMode) []Scenario {
	var scs []Scenario
	for _, f := range chaosFaults {
		for _, pol := range chaosPolicies {
			s := baseScenario.withPlan(f)
			s.Policy, s.Mode = pol, mode
			scs = append(scs, s)
		}
	}
	return scs
}

// ChaosMode is Chaos with the lockstep mode as a third matrix axis: the same
// fault plans replayed under pipelined lockstep must surface the same alarm
// keys — detection moved to drain time, not dropped.
func ChaosMode(seed int64, mode core.LockstepMode) (*ChaosResult, error) {
	cells, err := runSlice(seed, chaosSlice(mode))
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return &ChaosResult{Seed: seed, Mode: mode, Cells: cells}, nil
}

// String renders the survival matrix plus a per-cell detail block.
func (r *ChaosResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sMVX chaos survival matrix (fault x policy), seed %d, %s lockstep\n", r.Seed, r.Mode)
	fmt.Fprintf(&b, "%d regions per cell, rendezvous deadline %d cycles, restart budget %d\n\n",
		defaultRegions, cellDeadline, cellRestartBudget)

	fmt.Fprintf(&b, "%-18s", "fault")
	for _, pol := range chaosPolicies {
		fmt.Fprintf(&b, " %-18s", pol)
	}
	b.WriteString("\n")
	for _, f := range chaosFaults {
		fmt.Fprintf(&b, "%-18s", f.Name)
		for _, pol := range chaosPolicies {
			out := "?"
			if c := findCell(r.Cells, func(c *Cell) bool { return c.Fault == f.Name && c.Policy == pol }); c != nil {
				out = fmt.Sprintf("%s %d/%d", c.Outcome, c.Completed, c.Regions)
			}
			fmt.Fprintf(&b, " %-18s", out)
		}
		b.WriteString("\n")
	}

	b.WriteString("\ncell detail (alarms, policy response):\n")
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(&b, "  %-18s %-18s injected=%d alarms=[%s] unhandled=%d detached=%v restarts=%d degraded=%v\n",
			c.Fault, c.Policy, c.Injected, c.alarmList(), c.Unhandled, c.Detached, c.Restarts, c.Degraded)
		if c.LeaderErr != "" {
			fmt.Fprintf(&b, "    leader error: %s\n", c.LeaderErr)
		}
	}
	return b.String()
}

// RecordMetrics folds the matrix outcomes into the benchmark registry.
func (r *ChaosResult) RecordMetrics(bench *obs.Metrics) {
	for i := range r.Cells {
		c := &r.Cells[i]
		bench.Inc("chaos.cells")
		if c.Survived {
			bench.Inc("chaos.leader_survived")
		}
		bench.Inc("chaos.outcome." + obs.SanitizeName(c.Outcome))
		bench.Add("chaos.faults_injected", uint64(c.Injected))
		bench.Add("chaos.alarms_unhandled", uint64(c.Unhandled))
	}
}
