package obs

import (
	"testing"

	"smvx/internal/sim/clock"
)

// TestFleetWindowRateDecaysWhenTrafficStops is the staleness regression
// test: the windowed rate's horizon must be anchored to the fleet-wide
// newest event, not each app's own last completion. Before the fix, an
// app whose traffic stopped kept reporting its final burst's window_rps
// forever — "now" never moved past its own last request.
func TestFleetWindowRateDecaysWhenTrafficStops(t *testing.T) {
	f := NewFleet()
	serve := func(app string, start, end clock.Cycles) {
		f.TapEvent(Event{Kind: EvRequestStart, Name: app, TS: start})
		f.TapEvent(Event{Kind: EvRequestEnd, Name: app, TS: end, Arg0: uint64(end - start), Fn: "served"})
	}
	// App "stale" serves a burst, then goes quiet.
	serve("stale", 100, 1000)
	serve("stale", 200, 1100)
	// App "live" keeps serving far more than a window later.
	late := clock.Cycles(1000) + 3*FleetWindowCycles
	serve("live", late-500, late)

	snap := f.Snapshot()
	var staleRow, liveRow *FleetAppSnapshot
	for i := range snap.Apps {
		switch snap.Apps[i].App {
		case "stale":
			staleRow = &snap.Apps[i]
		case "live":
			liveRow = &snap.Apps[i]
		}
	}
	if staleRow == nil || liveRow == nil {
		t.Fatalf("missing rows in snapshot: %+v", snap.Apps)
	}
	if staleRow.WindowRPS != 0 {
		t.Errorf("stale app window_rps = %v, want 0: its last completion is %d cycles behind the fleet",
			staleRow.WindowRPS, 3*FleetWindowCycles)
	}
	if liveRow.WindowRPS <= 0 {
		t.Errorf("live app window_rps = %v, want > 0", liveRow.WindowRPS)
	}
	// The lifetime rate is unaffected by the window anchor.
	if staleRow.RPS <= 0 {
		t.Errorf("stale app lifetime rps = %v, want > 0", staleRow.RPS)
	}
}

// TestFleetWindowRateLiveBurst: an app whose completions all sit inside
// the trailing window reports a positive windowed rate bounded by its
// elapsed span.
func TestFleetWindowRateLiveBurst(t *testing.T) {
	f := NewFleet()
	for i := clock.Cycles(1); i <= 10; i++ {
		f.TapEvent(Event{Kind: EvRequestStart, Name: "srv", TS: i * 100})
		f.TapEvent(Event{Kind: EvRequestEnd, Name: "srv", TS: i*100 + 50, Arg0: 50, Fn: "served"})
	}
	snap := f.Snapshot()
	if len(snap.Apps) != 1 {
		t.Fatalf("apps = %d, want 1", len(snap.Apps))
	}
	if snap.Apps[0].WindowRPS <= 0 {
		t.Errorf("window_rps = %v, want > 0 for an in-window burst", snap.Apps[0].WindowRPS)
	}
}
