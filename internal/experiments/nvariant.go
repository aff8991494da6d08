package experiments

import (
	"fmt"
	"sort"
	"strings"

	"smvx/internal/core"
	"smvx/internal/faultinject"
	"smvx/internal/obs"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/machine"
)

// The N-variant artifact measures what a larger variant set buys and what
// it costs: the chaos fault matrix replayed at N ∈ {2, 3, 5} under the
// leader-continue policy. At N=2 the vote has one follower ballot, so a
// divergence is a pairwise alarm and the lone follower is detached; at
// N≥3 a single corrupted follower is outvoted and quarantined while
// the surviving majority keeps full lockstep — and a colluding pair of
// corrupted followers can outvote the leader at N=3 but loses again at
// N=5. Overhead is the clean run's virtual cycle cost versus the pair.

// nvariantNs is the variant-set size axis.
var nvariantNs = []int{2, 3, 5}

// nvariantFaults extends the chaos fault rows with a collusion scenario:
// the same arg-flip injected into followers 1 AND 2 at the same
// per-variant ordinal, so the two corrupted ballots agree with each other
// and form a voting bloc against the leader. At N=2 the variant:2 fault
// has no slot to fire in and the row degenerates to the plain arg-flip.
func nvariantFaults() []struct {
	Name   string
	Faults []faultinject.Fault
} {
	rows := append([]struct {
		Name   string
		Faults []faultinject.Fault
	}{}, chaosFaults...)
	rows = append(rows, struct {
		Name   string
		Faults []faultinject.Fault
	}{"arg-flip@4-collude", []faultinject.Fault{
		{Kind: faultinject.ArgFlip, Call: 4, Bit: 0, Variant: 1},
		{Kind: faultinject.ArgFlip, Call: 4, Bit: 0, Variant: 2},
	}})
	return rows
}

// NVariantCell is one (N, fault) outcome.
type NVariantCell struct {
	N     int
	Fault string
	// Regions/Survived mirror the chaos matrix: the leader must complete
	// all chaosRegions protected regions.
	Regions  int
	Survived bool
	Injected int
	// Detected means at least one alarm fired; Outvotes counts
	// AlarmOutvoted alarms (0 at N=2, where divergence is pairwise).
	Detected bool
	Outvotes int
	Alarms   map[string]int
	// Unhandled counts alarms the policy did not contain.
	Unhandled int
	// Cycles is the run's total virtual CPU cost — the overhead axis.
	Cycles clock.Cycles
	// LeaderErr is the leader's crash, if the cell killed it (it must not).
	LeaderErr string
}

// NVariantResult is the full size-vs-fault matrix.
type NVariantResult struct {
	Seed  int64
	Cells []NVariantCell
}

// runNVariantCell runs one (N, fault) cell in a fresh environment under
// the leader-continue policy and strict lockstep.
func runNVariantCell(seed int64, n int, fault string, faults []faultinject.Fault) (NVariantCell, error) {
	cell := NVariantCell{N: n, Fault: fault, Alarms: map[string]int{}}
	env, rec, err := chaosEnv(seed)
	if err != nil {
		return cell, err
	}
	mon := core.New(env.Machine, env.LibC,
		core.WithSeed(seed), core.WithRecorder(rec),
		core.WithVariants(n),
		core.WithPolicy(core.PolicyLeaderContinue),
		core.WithRendezvousDeadline(chaosDeadline))
	var plan *faultinject.Plan
	if len(faults) > 0 {
		plan = faultinject.New(seed, faults...)
		plan.Install(env.Machine, rec)
	}

	th, err := env.MainThread()
	if err != nil {
		return cell, err
	}
	if err := mon.Init(th); err != nil {
		return cell, err
	}
	var loopErr error
	runErr := th.Run(func(t *machine.Thread) {
		for i := 0; i < chaosRegions; i++ {
			if loopErr = mon.Start(t, "protected_func"); loopErr != nil {
				return
			}
			t.Call("protected_func")
			if loopErr = mon.End(t); loopErr != nil {
				return
			}
			cell.Regions++
		}
	})
	if runErr == nil {
		runErr = loopErr
	}
	if runErr != nil {
		cell.LeaderErr = runErr.Error()
	}
	cell.Survived = runErr == nil && cell.Regions == chaosRegions
	if plan != nil {
		cell.Injected = plan.FiredCount()
	}
	for _, a := range mon.Alarms() {
		cell.Alarms[a.Reason.String()]++
		if a.Reason == core.AlarmOutvoted {
			cell.Outvotes++
		}
	}
	cell.Detected = len(mon.Alarms()) > 0
	cell.Unhandled = mon.UnhandledAlarmCount()
	cell.Cycles = env.Counter.Cycles()
	return cell, nil
}

// NVariant runs the size-vs-fault matrix. Every cell is an independent
// deterministic simulation; the same seed reproduces the same matrix.
func NVariant(seed int64) (*NVariantResult, error) {
	res := &NVariantResult{Seed: seed}
	for _, n := range nvariantNs {
		for _, f := range nvariantFaults() {
			cell, err := runNVariantCell(seed, n, f.Name, f.Faults)
			if err != nil {
				return nil, fmt.Errorf("nvariant cell (N=%d, %s): %w", n, f.Name, err)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// cell looks up a cell by coordinates.
func (r *NVariantResult) cell(n int, fault string) *NVariantCell {
	for i := range r.Cells {
		if r.Cells[i].N == n && r.Cells[i].Fault == fault {
			return &r.Cells[i]
		}
	}
	return nil
}

// faultRows counts the injected-fault rows (everything but "none").
func (r *NVariantResult) faultRows() int {
	seen := map[string]bool{}
	for i := range r.Cells {
		if r.Cells[i].Fault != "none" {
			seen[r.Cells[i].Fault] = true
		}
	}
	return len(seen)
}

// detectedAt counts the fault rows detected at size n.
func (r *NVariantResult) detectedAt(n int) int {
	d := 0
	for i := range r.Cells {
		if c := &r.Cells[i]; c.N == n && c.Fault != "none" && c.Detected {
			d++
		}
	}
	return d
}

// String renders the matrix plus the detection and overhead summaries.
func (r *NVariantResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sMVX N-variant voting matrix (fault x set size), seed %d, strict lockstep, leader-continue\n", r.Seed)
	fmt.Fprintf(&b, "%d regions per cell, rendezvous deadline %d cycles\n\n", chaosRegions, chaosDeadline)

	fmt.Fprintf(&b, "%-20s", "fault")
	for _, n := range nvariantNs {
		fmt.Fprintf(&b, " %-24s", fmt.Sprintf("N=%d", n))
	}
	b.WriteString("\n")
	for _, f := range nvariantFaults() {
		fmt.Fprintf(&b, "%-20s", f.Name)
		for _, n := range nvariantNs {
			c := r.cell(n, f.Name)
			out := "?"
			if c != nil {
				verdict := "missed"
				switch {
				case !c.Survived:
					verdict = "leader-dead"
				case c.Fault == "none" && !c.Detected:
					verdict = "clean"
				case c.Outvotes > 0:
					verdict = fmt.Sprintf("outvoted x%d", c.Outvotes)
				case c.Detected:
					verdict = "detected"
				}
				out = fmt.Sprintf("%s %d/%d", verdict, c.Regions, chaosRegions)
			}
			fmt.Fprintf(&b, " %-24s", out)
		}
		b.WriteString("\n")
	}

	b.WriteString("\ndetection and overhead vs set size:\n")
	base := r.cell(2, "none")
	for _, n := range nvariantNs {
		clean := r.cell(n, "none")
		over := "n/a"
		if base != nil && clean != nil && base.Cycles > 0 {
			over = fmt.Sprintf("%+.1f%%", 100*(float64(clean.Cycles)/float64(base.Cycles)-1))
		}
		var cycles clock.Cycles
		if clean != nil {
			cycles = clean.Cycles
		}
		fmt.Fprintf(&b, "  N=%d  detected %d/%d fault rows, clean run %d cycles (%s vs pair)\n",
			n, r.detectedAt(n), r.faultRows(), cycles, over)
	}

	b.WriteString("\ncell detail (alarms):\n")
	for i := range r.Cells {
		c := &r.Cells[i]
		reasons := make([]string, 0, len(c.Alarms))
		for name := range c.Alarms {
			reasons = append(reasons, name)
		}
		sort.Strings(reasons)
		parts := make([]string, 0, len(reasons))
		for _, name := range reasons {
			parts = append(parts, fmt.Sprintf("%s x%d", name, c.Alarms[name]))
		}
		alarms := "none"
		if len(parts) > 0 {
			alarms = strings.Join(parts, ", ")
		}
		fmt.Fprintf(&b, "  N=%d %-20s injected=%d alarms=[%s] outvotes=%d unhandled=%d\n",
			c.N, c.Fault, c.Injected, alarms, c.Outvotes, c.Unhandled)
		if c.LeaderErr != "" {
			fmt.Fprintf(&b, "    leader error: %s\n", c.LeaderErr)
		}
	}
	return b.String()
}

// RecordMetrics folds the matrix into the benchmark registry. Detection,
// survival, and outvote counts are deterministic and gate exactly; the
// clean-run cycle cost gates with the standard cycle band; the derived
// overhead percentage stays ungated (it is bounded by its inputs).
func (r *NVariantResult) RecordMetrics(bench *obs.Metrics) {
	base := r.cell(2, "none")
	for _, n := range nvariantNs {
		prefix := fmt.Sprintf("nvariant.n%d", n)
		survived, outvotes, unhandled := 0, 0, 0
		for i := range r.Cells {
			c := &r.Cells[i]
			if c.N != n {
				continue
			}
			if c.Survived {
				survived++
			}
			outvotes += c.Outvotes
			unhandled += c.Unhandled
		}
		bench.Add(prefix+".detected", uint64(r.detectedAt(n)))
		bench.Add(prefix+".leader_survived", uint64(survived))
		bench.Add(prefix+".outvotes", uint64(outvotes))
		bench.Add(prefix+".alarms_unhandled", uint64(unhandled))
		if clean := r.cell(n, "none"); clean != nil {
			bench.SetGauge(prefix+".clean.cycles", float64(clean.Cycles))
			if base != nil && base.Cycles > 0 {
				bench.SetGauge(prefix+".overhead_pct",
					100*(float64(clean.Cycles)/float64(base.Cycles)-1))
			}
		}
	}
}
