package experiments

import (
	"fmt"
	"strings"

	"smvx/internal/core"
	"smvx/internal/faultinject"
	"smvx/internal/obs"
	"smvx/internal/sim/clock"
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
var nvariantFaults = append(append([]faultPlan{}, chaosFaults...),
	faultPlan{"arg-flip@4-collude", []faultinject.Fault{
		{Kind: faultinject.ArgFlip, Call: 4, Bit: 0, Variant: 1},
		{Kind: faultinject.ArgFlip, Call: 4, Bit: 0, Variant: 2},
	}})

// NVariantResult is the full size-vs-fault matrix.
type NVariantResult struct {
	Seed  int64
	Cells []Cell
}

// nvariantScenario is one (N, fault) cell: leader-continue, strict
// lockstep.
func nvariantScenario(n int, f faultPlan) Scenario {
	s := baseScenario.withPlan(f)
	s.Policy, s.N = core.PolicyLeaderContinue, n
	return s
}

// nvariantSlice is the size x fault matrix.
func nvariantSlice() []Scenario {
	var scs []Scenario
	for _, n := range nvariantNs {
		for _, f := range nvariantFaults {
			scs = append(scs, nvariantScenario(n, f))
		}
	}
	return scs
}

// NVariant runs the size-vs-fault matrix. Every cell is an independent
// deterministic simulation; the same seed reproduces the same matrix.
func NVariant(seed int64) (*NVariantResult, error) {
	cells, err := runSlice(seed, nvariantSlice())
	if err != nil {
		return nil, fmt.Errorf("nvariant: %w", err)
	}
	return &NVariantResult{Seed: seed, Cells: cells}, nil
}

// cell looks up a cell by coordinates.
func (r *NVariantResult) cell(n int, fault string) *Cell {
	return findCell(r.Cells, func(c *Cell) bool { return c.N == n && c.Fault == fault })
}

// detectedAt counts the fault rows detected at size n.
func (r *NVariantResult) detectedAt(n int) int {
	d := 0
	for i := range r.Cells {
		if c := &r.Cells[i]; c.N == n && c.Fault != "none" && c.Detected() {
			d++
		}
	}
	return d
}

// String renders the matrix plus the detection and overhead summaries.
func (r *NVariantResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sMVX N-variant voting matrix (fault x set size), seed %d, strict lockstep, leader-continue\n", r.Seed)
	fmt.Fprintf(&b, "%d regions per cell, rendezvous deadline %d cycles\n\n", defaultRegions, chaosDeadline)

	fmt.Fprintf(&b, "%-20s", "fault")
	for _, n := range nvariantNs {
		fmt.Fprintf(&b, " %-24s", fmt.Sprintf("N=%d", n))
	}
	b.WriteString("\n")
	for _, f := range nvariantFaults {
		fmt.Fprintf(&b, "%-20s", f.Name)
		for _, n := range nvariantNs {
			c := r.cell(n, f.Name)
			out := "?"
			if c != nil {
				verdict := "missed"
				switch {
				case !c.Survived:
					verdict = "leader-dead"
				case c.Fault == "none" && !c.Detected():
					verdict = "clean"
				case c.Outvotes > 0:
					verdict = fmt.Sprintf("outvoted x%d", c.Outvotes)
				case c.Detected():
					verdict = "detected"
				}
				out = fmt.Sprintf("%s %d/%d", verdict, c.Completed, c.Regions)
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
			n, r.detectedAt(n), len(nvariantFaults)-1, cycles, over)
	}

	b.WriteString("\ncell detail (alarms):\n")
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(&b, "  N=%d %-20s injected=%d alarms=[%s] outvotes=%d unhandled=%d\n",
			c.N, c.Fault, c.Injected, c.alarmList(), c.Outvotes, c.Unhandled)
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
