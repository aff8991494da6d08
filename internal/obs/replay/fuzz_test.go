package replay

import (
	"os"
	"path/filepath"
	"testing"

	"smvx/internal/obs"
	"smvx/internal/obs/blackbox"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
)

// fuzzSeedSegment records a small run that feeds every derived table —
// ledger cells of the leader and two followers flushed at each region
// end, one per-charge ledger event as a version-1 WAL holds it, request
// spans, an injected fault, a rollback, a rendezvous span and an alarm —
// and returns its one sealed segment's file name and bytes.
func fuzzSeedSegment(f *testing.F) (string, []byte) {
	f.Helper()
	dir := f.TempDir()
	ctr := clock.NewCounter()
	rec := obs.NewRecorder(obs.Config{Clock: ctr})
	labels := map[string]string{}
	SetTableLabels(labels, "pipelined", "rollback", 16, true, 0)
	w, err := blackbox.Open(dir, blackbox.Meta{Capacity: 64, ForensicWindow: 4, Labels: labels},
		blackbox.Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	rec.SetSink(w)
	led := ledger.New()
	led.SetRecorder(rec)
	rg := led.Region("handler")
	fleet := obs.NewFleet()
	for i := 0; i < 3; i++ {
		sp := fleet.Begin(rec, "nginx")
		ctr.Charge(100)
		rg.Add(ledger.PhaseEnqueue, obs.VariantLeader, ledger.ClassPipelined, 250, ledger.Mark{}, 0)
		rg.Add(ledger.PhaseDrain, obs.VariantFollower, ledger.ClassPipelined, 80, ledger.Mark{}, 0)
		rg.Add(ledger.PhaseEmulate, obs.Variant(2), ledger.ClassBarrier, 64, ledger.Mark{}, 64)
		span := rec.BeginRendezvousSpan(obs.VariantLeader, 1, obs.NewSpanNames("write").Rendezvous, 2)
		ctr.Charge(20)
		span.End(64)
		rg.Flush()
		sp.End(i != 1)
	}
	rec.RecordIn("handler", obs.EvLedger, obs.VariantFollower, 0,
		ledger.PhaseClassName(ledger.PhaseCompare, ledger.ClassBarrier), 120, 1, 48)
	rec.Record(obs.EvFaultInjected, obs.VariantFollower, 2, "arg-flip:strlen", 6, 0, 0)
	rec.RecordIn("handler", obs.EvRollback, obs.VariantNone, 0, "handler", 8, 0, 1)
	rec.Alarm(obs.AlarmInfo{Reason: "libc argument mismatch", CallIndex: 8, Function: "handler"})
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		f.Fatalf("want one sealed segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	return filepath.Base(segs[0]), data
}

// FuzzTables throws arbitrary segment bytes at the replay folds. Whatever
// the WAL reader salvages — phase/class names, variant bytes, span
// payloads, labels — folds through the derived tables, and rendering
// them as smvx-replay tables and inspect do must never panic.
func FuzzTables(f *testing.F) {
	name, seed := fuzzSeedSegment(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Load(dir)
		if err != nil {
			t.Fatalf("segment content must never error the reader, got: %v", err)
		}
		tables := r.Tables()
		_ = tables.Ledger.TableText()
		_ = tables.Fleet.TableText()
		_ = tables.Incidents.TableText()
		_ = r.Summary()
	})
}
