package experiments

import (
	"fmt"
	"sort"
	"testing"

	"smvx/internal/core"
)

// keySet flattens a cell's ordinal-attributed alarm keys to a sorted,
// presence-only signature (counts of the fault-class keys can differ with
// interleaving; the set of keys must not).
func keySet(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// Every (fault, policy) chaos cell must raise the same alarm-key set under
// pipelined lockstep as under strict lockstep: moving divergence checks to
// drain time may delay detection but must not lose an alarm or misattribute
// its originating call ordinal. Leader survival and the outcome
// classification must match too.
func TestModeParityChaosMatrix(t *testing.T) {
	strict, err := ChaosMode(Seed, core.LockstepStrict)
	if err != nil {
		t.Fatal(err)
	}
	pipelined, err := ChaosMode(Seed, core.LockstepPipelined)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Cells) != len(pipelined.Cells) {
		t.Fatalf("cell count: strict %d vs pipelined %d", len(strict.Cells), len(pipelined.Cells))
	}
	for i := range strict.Cells {
		sc, pc := &strict.Cells[i], &pipelined.Cells[i]
		name := fmt.Sprintf("%s/%s", sc.Fault, sc.Policy)
		t.Run(name, func(t *testing.T) {
			if sc.Fault != pc.Fault || sc.Policy != pc.Policy {
				t.Fatalf("matrix order mismatch: strict (%s,%s) vs pipelined (%s,%s)",
					sc.Fault, sc.Policy, pc.Fault, pc.Policy)
			}
			if got, want := keySet(pc.AlarmKeys), keySet(sc.AlarmKeys); got != want {
				t.Errorf("alarm keys: pipelined %s, strict %s", got, want)
			}
			if pc.Survived != sc.Survived {
				t.Errorf("survived: pipelined %v, strict %v", pc.Survived, sc.Survived)
			}
			if pc.Outcome != sc.Outcome {
				t.Errorf("outcome: pipelined %q, strict %q", pc.Outcome, sc.Outcome)
			}
			if pc.Injected != sc.Injected {
				t.Errorf("faults injected: pipelined %d, strict %d", pc.Injected, sc.Injected)
			}
		})
	}
}

// The recorded CVE-2013-2028 exploit must be detected under pipelined
// lockstep exactly as under strict: the follower faults at a leader-layout
// gadget address whichever way the rendezvous is scheduled.
func TestCVEDetectedUnderPipelined(t *testing.T) {
	res, err := CVEObservedOpts(nil, core.WithLockstepMode(core.LockstepPipelined))
	if err != nil {
		t.Fatal(err)
	}
	if !res.VanillaPwned {
		t.Error("exploit did not work on vanilla nginx (bug in the reproduction)")
	}
	if !res.SMVXDetected {
		t.Error("sMVX with pipelined lockstep missed the exploit")
	}
	if !res.FixedSurvives {
		t.Error("fixed nginx did not survive")
	}
}

// Acceptance: at lag window 16, pipelined lockstep cuts the leader's mean
// rendezvous cost in the protected region by at least 25% against strict,
// with zero alarms in either configuration.
func TestPipelineOverheadReduction(t *testing.T) {
	res, err := LedgerBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if row := &res.Rows[i]; len(row.Alarms) != 0 {
			t.Errorf("%s: alarms %v on an honest region, want none", row.Mode, row.Alarms)
		}
	}
	strict := findCell(res.Rows, func(c *Cell) bool { return c.Mode == core.LockstepStrict })
	if strict == nil {
		t.Fatal("no strict baseline row")
	}
	lag16 := findCell(res.Rows, func(c *Cell) bool { return c.Mode == core.LockstepPipelined })
	if lag16 == nil {
		t.Fatal("no lag=16 row")
	}
	if strict.RendezvousMean <= 0 {
		t.Fatalf("strict mean = %f, want > 0", strict.RendezvousMean)
	}
	if red := res.reductionPct(lag16); red < 25 {
		t.Errorf("lag=16 reduction = %.1f%%, want >= 25%% (strict mean %.0f, lag16 mean %.0f)",
			red, strict.RendezvousMean, lag16.RendezvousMean)
	}
}
