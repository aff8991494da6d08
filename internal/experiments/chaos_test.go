package experiments

import (
	"strings"
	"testing"

	"smvx/internal/core"
)

// TestChaosMatrixDeterministic runs the full matrix twice at the same seed
// and requires byte-identical renderings: every cell — including the stall
// and crash cells, whose variants race in real time — must land on the same
// outcome, alarm counts, and policy response.
func TestChaosMatrixDeterministic(t *testing.T) {
	a, err := Chaos(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chaos(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("chaos matrix not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestChaosMatrixOutcomes pins the shape of the matrix: under kill-both
// every fault is fatal (unhandled alarms), under leader-continue every fault
// is contained with the leader finishing all regions, and under
// restart-follower the follower is re-cloned back into lockstep.
func TestChaosMatrixOutcomes(t *testing.T) {
	res, err := Chaos(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(chaosFaults)*len(chaosPolicies) {
		t.Fatalf("cells = %d, want %d", len(res.Cells), len(chaosFaults)*len(chaosPolicies))
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if !c.Survived {
			t.Errorf("(%s, %s): leader did not survive: regions=%d err=%q",
				c.Fault, c.Policy, c.Completed, c.LeaderErr)
			continue
		}
		want := ""
		switch {
		case c.Fault == "none":
			want = "clean"
		case c.Policy == core.PolicyKillBoth:
			want = "killed"
		case c.Policy == core.PolicyLeaderContinue:
			want = "contained"
		case c.Policy == core.PolicyRestartFollower:
			want = "restarted"
		}
		if c.Outcome != want {
			t.Errorf("(%s, %s): outcome = %s, want %s", c.Fault, c.Policy, c.Outcome, want)
		}
		if c.Fault != "none" && c.Injected != 1 {
			t.Errorf("(%s, %s): injected = %d, want 1", c.Fault, c.Policy, c.Injected)
		}
		// Containment means no unhandled alarms; kill-both must leave them
		// unhandled (the paper's verdict).
		if c.Policy == core.PolicyKillBoth && c.Fault != "none" && c.Unhandled == 0 {
			t.Errorf("(%s, %s): kill-both left no unhandled alarms", c.Fault, c.Policy)
		}
		if c.Policy != core.PolicyKillBoth && c.Unhandled != 0 {
			t.Errorf("(%s, %s): containment left %d unhandled alarms", c.Fault, c.Policy, c.Unhandled)
		}
		if c.Policy == core.PolicyRestartFollower && c.Fault != "none" && c.Restarts != 1 {
			t.Errorf("(%s, %s): restarts = %d, want 1", c.Fault, c.Policy, c.Restarts)
		}
	}
	if !strings.Contains(res.String(), "survival matrix") {
		t.Error("rendering missing header")
	}
}
