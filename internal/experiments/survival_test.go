package experiments

import (
	"fmt"
	"strings"
	"testing"

	"smvx/internal/core"
)

// TestSurvivalAttackCellRollback is the headline survivability contract:
// five exploit recurrences, every one detected, none reaching the
// filesystem, every benign request served, the worker alive at the end,
// and never a degraded single-variant region.
func TestSurvivalAttackCellRollback(t *testing.T) {
	native, err := runAttackCell(attackSpecs[0])
	if err != nil {
		t.Fatal(err)
	}
	if native.RPS <= 0 {
		t.Fatalf("native RPS = %v, want > 0", native.RPS)
	}
	for _, spec := range attackSpecs {
		if spec.policy != core.PolicyRollback {
			continue
		}
		t.Run(spec.name, func(t *testing.T) {
			c, err := runAttackCell(spec)
			if err != nil {
				t.Fatal(err)
			}
			if c.Detected != survivalAttacks {
				t.Errorf("detected %d of %d attacks", c.Detected, survivalAttacks)
			}
			if c.Rollbacks != survivalAttacks {
				t.Errorf("rollbacks = %d, want %d", c.Rollbacks, survivalAttacks)
			}
			if c.RegionAborts != survivalAttacks {
				t.Errorf("region aborts = %d, want %d (one unwound region per attack)", c.RegionAborts, survivalAttacks)
			}
			if c.Pwned {
				t.Error("exploit payload reached the filesystem under rollback")
			}
			if c.BenignOK != c.BenignSent || c.BenignSent != survivalAttacks {
				t.Errorf("benign served %d/%d, want %d/%d",
					c.BenignOK, c.BenignSent, survivalAttacks, survivalAttacks)
			}
			if !c.WorkerAlive {
				t.Errorf("worker died under continuous attack: %s", c.WorkerErr)
			}
			if c.LeaderOnly != 0 {
				t.Errorf("leader-only regions = %d, want 0 (no degraded window)", c.LeaderOnly)
			}
			if c.Escalated || c.Degraded {
				t.Errorf("escalated=%v degraded=%v, want neither", c.Escalated, c.Degraded)
			}
			if c.RPS <= 0 {
				t.Errorf("RPS = %v, want > 0 under attack", c.RPS)
			}
		})
	}
}

// TestSurvivalKillBothReference pins the paper-policy contrast: the attack
// is detected but the worker is dead after one delivery, and the winding-
// down leader still executes the payload's mkdir — detection without
// survival, and without prevention.
func TestSurvivalKillBothReference(t *testing.T) {
	c, err := runAttackCell(attackSpecs[len(attackSpecs)-1])
	if err != nil {
		t.Fatal(err)
	}
	if c.Detected != 1 {
		t.Errorf("kill-both detected %d attacks, want the one delivered", c.Detected)
	}
	if c.Rollbacks != 0 || c.RegionAborts != 0 {
		t.Errorf("kill-both rolled back %d regions and aborted %d, want neither", c.Rollbacks, c.RegionAborts)
	}
	if c.BenignSent != 0 {
		t.Errorf("kill-both sent %d benign requests, want none after the fatal attack", c.BenignSent)
	}
	if c.WorkerAlive {
		t.Error("kill-both worker survived, want dead after first attack")
	}
	if !c.Pwned {
		t.Error("expected the kill-both leader to reach the payload call while dying")
	}
}

// TestSurvivalMatrixShapes pins the three recurrence shapes of the rollback
// column: every-region recurrence exhausts the budget and escalates,
// recurrence with clean gaps recovers indefinitely, and the length-mismatch
// recurrence escalates through its own alarm family.
func TestSurvivalMatrixShapes(t *testing.T) {
	want := map[string]string{
		"arg-flip@4:repeat-every:4":     "escalated",
		"arg-flip@4:repeat-every:8":     "recovered",
		"ipc-truncate@5:repeat-every:6": "escalated",
	}
	for _, f := range survivalFaults {
		for _, mode := range lockstepModes {
			cell, err := runScenario(Seed, survivalScenario(f, core.PolicyRollback, mode))
			if err != nil {
				t.Fatal(err)
			}
			if !cell.Survived {
				t.Errorf("%s/%s: leader died", f.Name, mode)
			}
			if cell.Outcome != want[f.Name] {
				t.Errorf("%s/%s: outcome %q, want %q", f.Name, mode, cell.Outcome, want[f.Name])
			}
			if strings.Contains(f.Name, "every:8") && cell.Unhandled != 0 {
				t.Errorf("%s/%s: %d unhandled alarms in the sustained-recovery cell",
					f.Name, mode, cell.Unhandled)
			}
		}
	}
}

// TestSurvivalSweepMonotone pins the cadence trade-off: a tighter snapshot
// interval takes more checkpoints and pays more capture cycles, but never
// changes how many rollbacks the fault plan forces.
func TestSurvivalSweepMonotone(t *testing.T) {
	entry, err := runScenario(Seed, sweepScenario(0))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := runScenario(Seed, sweepScenario(20_000))
	if err != nil {
		t.Fatal(err)
	}
	if entry.Snapshots != survivalRegions {
		t.Errorf("entry-only snapshots = %d, want one per region (%d)", entry.Snapshots, survivalRegions)
	}
	if tight.Snapshots <= entry.Snapshots {
		t.Errorf("tight cadence took %d snapshots, entry-only %d — want more", tight.Snapshots, entry.Snapshots)
	}
	if tight.CaptureCycles <= entry.CaptureCycles {
		t.Errorf("tight capture cycles %d <= entry-only %d", tight.CaptureCycles, entry.CaptureCycles)
	}
	if entry.Rollbacks != tight.Rollbacks {
		t.Errorf("rollbacks differ across cadence: %d vs %d", entry.Rollbacks, tight.Rollbacks)
	}
	if entry.Rollbacks == 0 {
		t.Error("sweep fault plan forced no rollbacks")
	}
}

// TestSurvivalMatrixDeterminism: two runs of the same cell must agree on
// every gated counter — the property the bench gate relies on.
func TestSurvivalMatrixDeterminism(t *testing.T) {
	s := survivalScenario(survivalFaults[2], core.PolicyRollback, core.LockstepPipelined) // ipc-truncate: the cell with the most moving parts
	gated := func(c Cell) string {
		alarms := 0
		for _, n := range c.Alarms {
			alarms += n
		}
		return fmt.Sprint(c.Completed, c.Survived, c.Injected, alarms, c.Unhandled, c.Rollbacks,
			c.RegionAborts, c.Restarts, c.Escalated, c.Degraded, c.Outcome)
	}
	a, err := runScenario(Seed, s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runScenario(Seed, s)
	if err != nil {
		t.Fatal(err)
	}
	if gated(a) != gated(b) {
		t.Errorf("matrix cell not deterministic:\n  a = %s\n  b = %s", gated(a), gated(b))
	}
}
