package incident

import (
	"strings"
	"testing"

	"smvx/internal/obs"
	"smvx/internal/sim/clock"
)

// ev builds a signal event at ts.
func ev(kind obs.EventKind, ts clock.Cycles, name string, arg0 uint64) obs.Event {
	return obs.Event{Kind: kind, TS: ts, Name: name, Arg0: arg0, Variant: obs.VariantNone}
}

func TestWindowMergeAndSplit(t *testing.T) {
	eng := New(100)
	eng.TapEvent(ev(obs.EvFaultInjected, 10, "arg-flip:open", 4))
	eng.TapEvent(ev(obs.EvAlarm, 50, "argument-mismatch", 4))
	eng.TapEvent(ev(obs.EvFollowerDetached, 120, "leader-continue", 5))
	// 120+100 < 400: a new incident opens.
	eng.TapEvent(ev(obs.EvWatchdog, 400, "rendezvous-deadline", 0))

	incs := eng.Incidents()
	if len(incs) != 2 {
		t.Fatalf("incidents = %d, want 2 (merge within window, split beyond)", len(incs))
	}
	if n := len(incs[0].Events); n != 3 {
		t.Errorf("first incident has %d events, want 3", n)
	}
	if incs[0].OpenTS != 10 || incs[0].LastTS != 120 {
		t.Errorf("first incident spans [%d,%d], want [10,120]", incs[0].OpenTS, incs[0].LastTS)
	}
	if incs[1].Severity != SevWarning {
		t.Errorf("watchdog-only incident severity = %s, want warning", incs[1].Severity)
	}
}

func TestSeverityIsMaxOverMembers(t *testing.T) {
	eng := New(1000)
	eng.TapEvent(ev(obs.EvFaultInjected, 10, "stall:malloc", 2)) // info
	eng.TapEvent(ev(obs.EvWatchdog, 20, "rendezvous-deadline", 0))
	eng.TapEvent(ev(obs.EvAlarm, 30, "rendezvous-timeout", 2)) // critical
	incs := eng.Incidents()
	if len(incs) != 1 || incs[0].Severity != SevCritical {
		t.Fatalf("incidents = %+v, want one critical incident", incs)
	}
}

func TestRootCauseIsFirstEventWithOrdinal(t *testing.T) {
	eng := New(1000)
	eng.TapEvent(ev(obs.EvFaultInjected, 10, "arg-flip:open", 4))
	eng.TapEvent(ev(obs.EvAlarm, 30, "argument-mismatch", 4))
	incs := eng.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incs))
	}
	root := incs[0].RootCause()
	if root != "fault-injected arg-flip:open@call4" {
		t.Errorf("root cause = %q, want the fault with its call ordinal", root)
	}
	if lat, ok := incs[0].DetectionLatency(); !ok || lat != 20 {
		t.Errorf("detection latency = %d,%v, want 20,true", lat, ok)
	}
}

func TestNonSignalEventsIgnored(t *testing.T) {
	eng := New(1000)
	eng.TapEvent(ev(obs.EvLibcEnter, 10, "read", 0))
	eng.TapEvent(ev(obs.EvLockstep, 20, "read", 0))
	eng.TapEvent(ev(obs.EvSpan, 30, "rendezvous:read", 0))
	if n := eng.Count(); n != 0 {
		t.Fatalf("non-signal events opened %d incidents", n)
	}
}

func TestActiveAt(t *testing.T) {
	eng := New(100)
	eng.TapEvent(ev(obs.EvAlarm, 10, "argument-mismatch", 1))
	if got := eng.ActiveAt(50); got != 1 {
		t.Errorf("ActiveAt(50) = %d, want 1 (inside window)", got)
	}
	if got := eng.ActiveAt(500); got != 0 {
		t.Errorf("ActiveAt(500) = %d, want 0 (window expired)", got)
	}
}

// TestTableTextDeterminism pins the byte-identity contract the offline
// rebuild depends on: folding the same event sequence through two engines
// yields byte-identical canonical tables.
func TestTableTextDeterminism(t *testing.T) {
	seq := []obs.Event{
		ev(obs.EvFaultInjected, 10, "ipc-truncate:write", 5),
		ev(obs.EvAlarm, 40, "argument-mismatch", 5),
		ev(obs.EvAnomaly, 41, "static", 1),
		ev(obs.EvFollowerDetached, 60, "leader-continue", 6),
		ev(obs.EvWatchdog, 5000, "rendezvous-deadline", 0),
	}
	render := func() string {
		eng := New(1000)
		for _, e := range seq {
			eng.TapEvent(e)
		}
		return eng.TableText()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("canonical tables differ:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "root=fault-injected ipc-truncate:write@call5") {
		t.Errorf("table missing ordinal-attributed root cause:\n%s", a)
	}
	if strings.Contains(a, "bundle") {
		t.Errorf("canonical table leaks live-only bundle data:\n%s", a)
	}
}

// TestTapNonSignalDoesNotAllocate pins the per-protected-call cost of
// having the incident plane attached: tapping a non-signal event (the
// overwhelmingly common case) is a fixed-ring value copy, no allocation.
func TestTapNonSignalDoesNotAllocate(t *testing.T) {
	eng := New(0)
	e := ev(obs.EvLibcEnter, 10, "read", 0)
	allocs := testing.AllocsPerRun(200, func() {
		eng.TapEvent(e)
	})
	if allocs != 0 {
		t.Errorf("non-signal tap allocates %.1f per event", allocs)
	}
}

// TestRecorderTapHotPathDoesNotAllocate measures the whole chain the
// protected-call hot path pays with incidents on: Record → ring → tap.
func TestRecorderTapHotPathDoesNotAllocate(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{Capacity: 64})
	eng := New(0)
	rec.SetTap(eng)
	for i := 0; i < 128; i++ { // steady state: full ring, evicting
		rec.Record(obs.EvLibcEnter, obs.VariantLeader, 1, "read", 1, 2, 3)
	}
	allocs := testing.AllocsPerRun(200, func() {
		rec.Record(obs.EvLibcEnter, obs.VariantLeader, 1, "read", 1, 2, 3)
		rec.RecordIn("handler", obs.EvLibcExit, obs.VariantLeader, 1, "read", 0, 0, 7)
	})
	if allocs != 0 {
		t.Errorf("recorder+tap hot path allocates %.1f per op", allocs)
	}
}

func TestBundleCapturedAtOpenWithSources(t *testing.T) {
	eng := New(1000)
	eng.SetSources(nil, obs.NewFleet(), nil)
	eng.TapEvent(ev(obs.EvLibcEnter, 5, "read", 0)) // context for the ring
	eng.TapEvent(ev(obs.EvAlarm, 10, "argument-mismatch", 1))
	incs := eng.Incidents()
	if len(incs) != 1 || incs[0].Bundle == nil {
		t.Fatalf("incident with live sources has no bundle: %+v", incs)
	}
	if len(incs[0].Bundle.Events) == 0 {
		t.Error("bundle captured no ring context")
	}
	// Offline folds have no sources — and no bundle, keeping the JSON
	// snapshot honest about what was captured live.
	off := New(1000)
	off.TapEvent(ev(obs.EvAlarm, 10, "argument-mismatch", 1))
	if off.Incidents()[0].Bundle != nil {
		t.Error("sourceless engine fabricated a bundle")
	}
}

func TestSnapshotAndPublish(t *testing.T) {
	eng := New(1000)
	eng.TapEvent(ev(obs.EvFaultInjected, 10, "arg-flip:open", 4))
	eng.TapEvent(ev(obs.EvAlarm, 30, "argument-mismatch", 4))
	snap := eng.Snapshot()
	if snap.Total != 1 || len(snap.Incidents) != 1 {
		t.Fatalf("snapshot = %+v, want one incident", snap)
	}
	is := snap.Incidents[0]
	if is.RootCallOrdinal != 4 || is.DetectionLatency != 20 || is.Severity != "critical" {
		t.Errorf("snapshot incident = %+v", is)
	}
	m := obs.NewMetrics()
	eng.PublishTo(m)
	if v, _ := m.Gauge("incidents.total"); v != 1 {
		t.Errorf("incidents.total gauge = %v, want 1", v)
	}
	if v, _ := m.Gauge("incidents.severity{level=critical}"); v != 1 {
		t.Errorf("critical severity gauge = %v, want 1", v)
	}
}

func TestNilEngineSafe(t *testing.T) {
	var eng *Engine
	eng.TapEvent(ev(obs.EvAlarm, 10, "x", 1))
	eng.SetSources(nil, nil, nil)
	if eng.Count() != 0 || eng.ActiveAt(1) != 0 || eng.Incidents() != nil {
		t.Error("nil engine has state")
	}
	if eng.Window() != 0 {
		t.Error("nil engine has a window")
	}
	eng.PublishTo(obs.NewMetrics())
	if got := eng.TableText(); !strings.Contains(got, "no incidents") {
		t.Errorf("nil engine table = %q", got)
	}
}
