package replay

import (
	"testing"

	"smvx/internal/obs/incident"
)

// TestTableLabelsRoundTrip: the tables NewTables builds from the labels
// SetTableLabels wrote carry the run configuration, and a label set
// without them (a WAL from a run that stamped none) builds zero-config
// tables with the default incident window.
func TestTableLabelsRoundTrip(t *testing.T) {
	labels := map[string]string{"app": "nginx"}
	SetTableLabels(labels, "pipelined", "rollback", 16, true, 12_000_000)
	tables := NewTables(labels)
	if s := tables.Ledger.Snapshot(); s.Mode != "pipelined" || s.Policy != "rollback" || s.LagWindow != 16 {
		t.Errorf("ledger run labels = %q/%q/%d, want pipelined/rollback/16", s.Mode, s.Policy, s.LagWindow)
	}
	if got := tables.Fleet.Snapshot().Lockstep; got != "pipelined" {
		t.Errorf("fleet lockstep = %q, want pipelined", got)
	}
	if got := tables.Incidents.Window(); got != 12_000_000 {
		t.Errorf("incident window = %d, want 12000000", got)
	}

	// Incidents on at the default window stamp the resolved default;
	// incidents off stamp no window.
	SetTableLabels(labels, "strict", "kill-both", 0, true, 0)
	if got := labels["incident-window"]; got != "4200000" {
		t.Errorf("default incident-window label = %q, want 4200000", got)
	}
	off := map[string]string{}
	SetTableLabels(off, "strict", "kill-both", 0, false, 0)
	if _, ok := off["incident-window"]; ok {
		t.Error("a run without incidents stamped an incident window")
	}

	bare := NewTables(nil)
	if s := bare.Ledger.Snapshot(); s.Mode != "" || s.Policy != "" || s.LagWindow != 0 {
		t.Errorf("label-less ledger = %q/%q/%d, want zero", s.Mode, s.Policy, s.LagWindow)
	}
	if got := bare.Incidents.Window(); got != incident.DefaultWindowCycles {
		t.Errorf("label-less incident window = %d, want the default %d", got, incident.DefaultWindowCycles)
	}
}
