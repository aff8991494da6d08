package experiments

import (
	"strings"
	"testing"
)

// TestIncidentsMatrixContract runs the full fault x mode matrix and spot
// checks the detection contract Incidents itself enforces (it errors on
// violations), plus the artifact's rendered shape.
func TestIncidentsMatrixContract(t *testing.T) {
	res, err := Incidents(42)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 2 * len(chaosFaults)
	if len(res.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(res.Cells), wantCells)
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if len(c.Faults) == 0 {
			continue
		}
		if c.Severity != "critical" {
			t.Errorf("%s/%s severity = %q, want critical (every fault raises an alarm)", c.Fault, c.Mode, c.Severity)
		}
		if c.Anomalies == 0 {
			t.Errorf("%s/%s: the divergence static rule should have fired", c.Fault, c.Mode)
		}
	}
	out := res.String()
	if !strings.Contains(out, "fault-injected stall:malloc@call2") {
		t.Errorf("rendered matrix missing the stall root cause:\n%s", out)
	}
}

// TestIncidentCellDeterminism: the same seeded cell must produce a
// byte-identical canonical incident table on every run — the property the
// CI live-vs-replay diff and the BENCH gate both stand on.
func TestIncidentCellDeterminism(t *testing.T) {
	f := chaosFaults[2] // arg-flip@4
	for _, mode := range lockstepModes {
		ca, err := runScenario(42, incidentScenario(f, mode))
		if err != nil {
			t.Fatal(err)
		}
		cb, err := runScenario(42, incidentScenario(f, mode))
		if err != nil {
			t.Fatal(err)
		}
		a, b := ca.IncidentTable, cb.IncidentTable
		if a != b {
			t.Errorf("%s/%s incident tables differ across identical runs:\n%s\n---\n%s", f.Name, mode, a, b)
		}
		if !strings.Contains(a, "root=fault-injected arg-flip:open@call4") {
			t.Errorf("%s/%s table missing ordinal root cause:\n%s", f.Name, mode, a)
		}
	}
}
