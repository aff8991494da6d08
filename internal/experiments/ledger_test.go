package experiments

import (
	"strings"
	"testing"
)

// TestLedgerBreakdownReconciles is the ledger experiment's acceptance
// criterion: every configuration reports at least six distinct phases, and
// the ledger's leader-side sync total reconciles with the
// rendezvous.leader.cycles histogram within the 2% bound.
func TestLedgerBreakdownReconciles(t *testing.T) {
	res, err := LedgerBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want strict + lag 16", len(res.Rows))
	}
	for i := range res.Rows {
		row := &res.Rows[i]
		if len(row.Phases) < 6 {
			t.Errorf("%s: %d phases, want >= 6: %+v", row.Mode, len(row.Phases), row.Phases)
		}
		if row.ReconcilePct > 2.0 {
			t.Errorf("%s: ledger sync cycles vs histogram — reconcile %.2f%% exceeds the 2%% bound",
				row.Mode, row.ReconcilePct)
		}
		if row.Calls == 0 || row.LedgerCycles == 0 {
			t.Errorf("%s: empty row (%d calls, %d cycles)", row.Mode, row.Calls, row.LedgerCycles)
		}
	}
	// The pipelined rows must exercise the ring phases strict cannot.
	for _, row := range res.Rows[1:] {
		names := make(map[string]bool, len(row.Phases))
		for _, ph := range row.Phases {
			names[ph.Phase] = true
		}
		for _, want := range []string{"enqueue", "drain", "barrier"} {
			if !names[want] {
				t.Errorf("%s: missing pipelined phase %q", row.Mode, want)
			}
		}
	}
	if s := res.String(); !strings.Contains(s, "reconcile") || !strings.Contains(s, "strict") {
		t.Errorf("rendered table incomplete:\n%s", s)
	}
}
