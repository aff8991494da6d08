package ledger

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/sim/clock"
)

func TestPhaseClassNameRoundtrip(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		for c := Class(0); c < NumClasses; c++ {
			name := PhaseClassName(p, c)
			gp, gc, ok := parsePhaseClass(name)
			if !ok || gp != p || gc != c {
				t.Fatalf("roundtrip %q: got (%v, %v, %v), want (%v, %v, true)",
					name, gp, gc, ok, p, c)
			}
		}
	}
	if _, _, ok := parsePhaseClass("nonsense"); ok {
		t.Fatal("parsePhaseClass accepted a name with no slash")
	}
	if _, _, ok := parsePhaseClass("wait/bogus"); ok {
		t.Fatal("parsePhaseClass accepted an unknown class")
	}
}

func TestClassOf(t *testing.T) {
	// malloc is local, read is pipelined, write is a barrier in the libc
	// call table; the ledger classes must mirror them by code.
	cases := map[string]Class{"malloc": ClassLocal, "read": ClassPipelined, "write": ClassBarrier}
	for name, want := range cases {
		if got := Class(libc.SyncClassOf(name)); got != want {
			t.Errorf("Class(libc.SyncClassOf(%q)) = %v, want %v", name, got, want)
		}
	}
}

func TestAddAndSnapshot(t *testing.T) {
	l := New()
	l.SetRun("strict", "kill-both", 0)
	rg := l.Region("vuln")
	rg.Add(PhaseLibc, obs.VariantLeader, ClassPipelined, 60, Mark{}, 0)
	rg.Add(PhaseLibc, obs.VariantLeader, ClassPipelined, 60, Mark{}, 0)
	rg.Add(PhaseWait, obs.VariantFollower, ClassPipelined, 500, Mark{}, 0)
	rg.Add(PhaseCompare, obs.VariantLeader, ClassPipelined, 0, Mark{}, 48)
	l.Region("other").Add(PhaseTrampoline, obs.VariantLeader, ClassLocal, 90, Mark{}, 0)

	snap := l.Snapshot()
	if snap.Mode != "strict" || snap.Policy != "kill-both" || snap.LagWindow != 0 {
		t.Fatalf("run labels: %+v", snap)
	}
	if len(snap.Regions) != 2 {
		t.Fatalf("regions = %d, want 2", len(snap.Regions))
	}
	// Sorted by name: "other" before "vuln".
	if snap.Regions[0].Region != "other" || snap.Regions[1].Region != "vuln" {
		t.Fatalf("region order: %s, %s", snap.Regions[0].Region, snap.Regions[1].Region)
	}
	vuln := snap.Regions[1]
	if len(vuln.Cells) != 3 {
		t.Fatalf("vuln cells = %d, want 3", len(vuln.Cells))
	}
	// Cells in (phase, class, variant) enum order: wait < compare < libc.
	if vuln.Cells[0].Phase != "wait" || vuln.Cells[1].Phase != "compare" || vuln.Cells[2].Phase != "libc" {
		t.Fatalf("cell order: %s %s %s", vuln.Cells[0].Phase, vuln.Cells[1].Phase, vuln.Cells[2].Phase)
	}
	libcCell := vuln.Cells[2]
	if libcCell.Count != 2 || libcCell.Cycles != 120 || libcCell.Class != "pipelined" || libcCell.Variant != "leader" {
		t.Fatalf("libc cell: %+v", libcCell)
	}
	if vuln.Cells[1].Bytes != 48 {
		t.Fatalf("compare bytes = %d, want 48", vuln.Cells[1].Bytes)
	}

	calls, cycles, _ := l.Totals()
	if calls != 2 {
		t.Fatalf("Totals calls = %d, want 2", calls)
	}
	if cycles != 60+60+500+90 {
		t.Fatalf("Totals cycles = %d", cycles)
	}
}

func TestLeaderSyncCycles(t *testing.T) {
	l := New()
	rg := l.Region("fn")
	rg.Add(PhaseRendezvous, obs.VariantLeader, ClassPipelined, 2000, Mark{}, 0)
	rg.Add(PhaseWait, obs.VariantLeader, ClassPipelined, 300, Mark{}, 0)
	rg.Add(PhaseEnqueue, obs.VariantLeader, ClassPipelined, 250, Mark{}, 0)
	rg.Add(PhaseBarrier, obs.VariantLeader, ClassBarrier, 2000, Mark{}, 0)
	// Follower-side and non-sync phases must not count.
	rg.Add(PhaseWait, obs.VariantFollower, ClassPipelined, 9999, Mark{}, 0)
	rg.Add(PhaseLibc, obs.VariantLeader, ClassPipelined, 60, Mark{}, 0)
	if got := l.LeaderSyncCycles(); got != 2000+300+250+2000 {
		t.Fatalf("LeaderSyncCycles = %d, want 4550", got)
	}
}

// ledgerJSON renders a ledger as the /ledger endpoint and the replay
// parity comparison do.
func ledgerJSON(t testing.TB, l *Ledger) string {
	t.Helper()
	var b bytes.Buffer
	if err := l.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// fold folds events into a fresh ledger labeled like live, as replay does.
func fold(live *Ledger, events []obs.Event) *Ledger {
	rebuilt := New()
	snap := live.Snapshot()
	rebuilt.SetRun(snap.Mode, snap.Policy, snap.LagWindow)
	for _, e := range events {
		rebuilt.TapEvent(e)
	}
	return rebuilt
}

// cellEvents returns the EvLedgerCell events recorded since from.
func cellEvents(t *testing.T, rec *obs.Recorder, from int) []obs.Event {
	t.Helper()
	var out []obs.Event
	for _, e := range rec.Events()[from:] {
		switch e.Kind {
		case obs.EvLedgerCell:
			if _, _, ok := parsePhaseClass(e.Name); !ok || e.Fn != "vuln" || e.TID != 0 {
				t.Fatalf("malformed cell event %+v", e)
			}
			out = append(out, e)
		case obs.EvLedger:
			t.Fatalf("per-charge EvLedger event recorded: %+v", e)
		}
	}
	return out
}

func TestRecorderMirrorAndRawRebuild(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{})
	live := New()
	live.SetRun("pipelined", "kill-both", 16)
	live.SetRecorder(rec)
	rg := live.Region("vuln")
	rg.Add(PhaseEnqueue, obs.VariantLeader, ClassPipelined, 250, Mark{}, 0)
	rg.Add(PhaseWait, obs.VariantLeader, ClassPipelined, 120, Mark{}, 0)
	rg.Add(PhaseEmulate, obs.VariantFollower, ClassPipelined, 64, Mark{}, 64)
	if n := rec.Total(); n != 0 {
		t.Fatalf("Add recorded %d events; only Flush records", n)
	}

	// Three charged cells flush as three cell events.
	rg.Flush()
	if cells := cellEvents(t, rec, 0); len(cells) != 3 {
		t.Fatalf("first flush recorded %d cells, want 3: %+v", len(cells), cells)
	}

	// Two more charges to one cell flush as that cell alone, carrying
	// the two charges' movement.
	rg.Add(PhaseEmulate, obs.VariantFollower, ClassPipelined, 64, Mark{}, 64)
	rg.Add(PhaseEmulate, obs.VariantFollower, ClassPipelined, 32, Mark{}, 32)
	mark := len(rec.Events())
	rg.Flush()
	cells := cellEvents(t, rec, mark)
	want := obs.Event{Kind: obs.EvLedgerCell, Variant: obs.VariantFollower, Fn: "vuln",
		Name: PhaseClassName(PhaseEmulate, ClassPipelined), Arg0: 96, Arg1: 2, Ret: 96}
	if len(cells) != 1 {
		t.Fatalf("second flush recorded %d cells, want 1: %+v", len(cells), cells)
	}
	got := cells[0]
	got.Seq, got.VSeq, got.TS = 0, 0, 0
	if got != want {
		t.Fatalf("second flush cell = %+v, want %+v", got, want)
	}

	// A flush with nothing new records nothing, and so does the
	// ledger-wide flush.
	total := rec.Total()
	rg.Flush()
	live.Flush()
	if rec.Total() != total {
		t.Fatalf("flushes with nothing new recorded %d events", rec.Total()-total)
	}

	// Folding every recorded event rebuilds the live ledger. The fold
	// ignores other event kinds and unknown phase/class names.
	events := append(rec.Events(),
		obs.Event{Kind: obs.EvLibcEnter, Fn: "vuln", Name: "wait/pipelined", Arg0: 1},
		obs.Event{Kind: obs.EvLedgerCell, Fn: "vuln", Name: "wait/bogus", Arg0: 1, Arg1: 1})
	if a, b := ledgerJSON(t, live), ledgerJSON(t, fold(live, events)); a != b {
		t.Fatalf("rebuilt ledger differs from live:\nlive:\n%s\nrebuilt:\n%s", a, b)
	}
}

// TestLegacyChargeEventFoldsAsOneCharge: a version-1 WAL's per-charge
// EvLedger event (Arg1 = allocations) folds as the one Add that recorded
// it, so older WALs replay to the ledger they always did.
func TestLegacyChargeEventFoldsAsOneCharge(t *testing.T) {
	live := New()
	rg := live.Region("vuln")
	rg.charge(PhaseCompare, obs.VariantFollower, ClassBarrier, 1, 300, 2, 48)
	rg.charge(PhaseCompare, obs.VariantFollower, ClassBarrier, 1, 100, 0, 16)
	name := PhaseClassName(PhaseCompare, ClassBarrier)
	events := []obs.Event{
		{Kind: obs.EvLedger, Variant: obs.VariantFollower, Fn: "vuln", Name: name, Arg0: 300, Arg1: 2, Ret: 48},
		{Kind: obs.EvLedger, Variant: obs.VariantFollower, Fn: "vuln", Name: name, Arg0: 100, Arg1: 0, Ret: 16},
	}
	rebuilt := fold(live, events)
	if a, b := ledgerJSON(t, live), ledgerJSON(t, rebuilt); a != b {
		t.Fatalf("legacy fold differs from live:\nlive:\n%s\nrebuilt:\n%s", a, b)
	}
	if cl := rebuilt.Snapshot().Regions[0].Cells[0]; cl.Count != 2 || cl.Allocs != 2 {
		t.Fatalf("legacy cell = %+v, want 2 charges and 2 allocations", cl)
	}
}

// TestConcurrentChargesAndFlushesFoldExactly: four goroutines charge cells
// of several variants while a fifth flushes in a loop. A flush can split
// one charge's count and cycles across two cell events; after a final
// flush the fold of everything recorded, tapped in record order as the
// WAL holds it, still equals the live ledger exactly.
func TestConcurrentChargesAndFlushesFoldExactly(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{})
	live := New()
	live.SetRecorder(rec)
	rebuilt := New()
	rec.SetTap(rebuilt)
	rg := live.Region("vuln")
	const workers, charges = 4, 20000
	var charging, flushing sync.WaitGroup
	stop := make(chan struct{})
	flushing.Add(1)
	go func() {
		defer flushing.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rg.Flush()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		charging.Add(1)
		go func(w int) {
			defer charging.Done()
			for i := 0; i < charges; i++ {
				p := Phase((w + i) % int(NumPhases))
				rg.Add(p, obs.Variant(w%3), ClassPipelined, clock.Cycles(i%7+1), Mark{}, uint64(i%3))
			}
		}(w)
	}
	charging.Wait()
	close(stop)
	flushing.Wait()
	rg.Flush()
	if a, b := ledgerJSON(t, live), ledgerJSON(t, rebuilt); a != b {
		t.Fatalf("fold differs from live after concurrent flushes:\nlive:\n%s\nrebuilt:\n%s", a, b)
	}
	var want uint64
	for w := 0; w < workers; w++ {
		for i := 0; i < charges; i++ {
			want += uint64(i%7 + 1)
		}
	}
	if _, cycles, _ := live.Totals(); cycles != want {
		t.Fatalf("live cycles = %d, want %d", cycles, want)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	build := func() *Ledger {
		l := New()
		l.SetRun("strict", "kill-both", 0)
		l.Region("b").Add(PhaseLibc, obs.VariantLeader, ClassLocal, 60, Mark{}, 0)
		l.Region("a").Add(PhaseWait, obs.VariantFollower, ClassBarrier, 10, Mark{}, 0)
		return l
	}
	var x, y bytes.Buffer
	if err := build().WriteJSON(&x); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Fatal("WriteJSON is not deterministic across identical ledgers")
	}
}

func TestAllocProbe(t *testing.T) {
	l := New()
	l.EnableAllocProbe()
	rg := l.Region("fn")
	m := rg.Mark()
	if !m.ok {
		t.Fatal("Mark with probe enabled returned the zero Mark")
	}
	// Allocate something measurable between mark and add: one large object
	// that escapes to the heap. /gc/heap/allocs:objects counts a large
	// object when it is allocated, but small objects only when their
	// span leaves the mcache, so small makes need not move the counter.
	allocProbeSink = make([]byte, 64<<10)
	rg.Add(PhaseCompare, obs.VariantLeader, ClassPipelined, 0, m, 0)
	snap := l.Snapshot()
	if len(snap.Regions) != 1 || len(snap.Regions[0].Cells) != 1 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	if snap.Regions[0].Cells[0].Allocs == 0 {
		t.Fatal("alloc probe recorded zero allocations across a 64 KiB make")
	}
}

// allocProbeSink keeps TestAllocProbe's allocation on the heap.
var allocProbeSink []byte

func TestNilLedgerIsFreeNoop(t *testing.T) {
	var l *Ledger
	l.SetRun("strict", "kill-both", 0)
	l.SetRecorder(nil)
	l.EnableAllocProbe()
	rg := l.Region("fn")
	if rg != nil {
		t.Fatal("nil ledger returned a non-nil region")
	}
	rg.Add(PhaseLibc, obs.VariantLeader, ClassLocal, 1, rg.Mark(), 0)
	rg.Flush()
	l.Flush()
	l.TapEvent(obs.Event{Kind: obs.EvLedgerCell, Fn: "fn", Name: PhaseClassName(PhaseLibc, ClassLocal), Arg0: 1, Arg1: 1})
	if got := l.LeaderSyncCycles(); got != 0 {
		t.Fatalf("nil LeaderSyncCycles = %d", got)
	}
	if calls, cycles, allocs := l.Totals(); calls+cycles+allocs != 0 {
		t.Fatal("nil Totals non-zero")
	}
	snap := l.Snapshot()
	if snap.Regions != nil {
		t.Fatal("nil Snapshot has regions")
	}
}

func TestZeroAllocDisabledAndEnabledHotPath(t *testing.T) {
	// Disabled: nil Region, as held by uninstrumented monitors.
	var nilRg *Region
	if n := testing.AllocsPerRun(200, func() {
		m := nilRg.Mark()
		nilRg.Add(PhaseWait, obs.VariantLeader, ClassPipelined, 100, m, 0)
	}); n != 0 {
		t.Fatalf("disabled (nil) hot path allocates %v/op", n)
	}
	// Enabled, with a recorder attached: the production -ledger hot path,
	// which records nothing.
	l := New()
	rec := obs.NewRecorder(obs.Config{})
	l.SetRecorder(rec)
	rg := l.Region("fn")
	if n := testing.AllocsPerRun(200, func() {
		m := rg.Mark()
		rg.Add(PhaseWait, obs.VariantLeader, ClassPipelined, 100, m, 0)
	}); n != 0 {
		t.Fatalf("enabled hot path allocates %v/op", n)
	}
	if n := rec.Total(); n != 0 {
		t.Fatalf("Add recorded %d events", n)
	}
}

// TestFlushAllocatesNothing: a region-end flush that records cells of
// several phases and variants allocates nothing, and neither does the
// ledger-wide flush.
func TestFlushAllocatesNothing(t *testing.T) {
	l := New()
	rec := obs.NewRecorder(obs.Config{})
	l.SetRecorder(rec)
	rg := l.Region("fn")
	if n := testing.AllocsPerRun(200, func() {
		rg.Add(PhaseWait, obs.VariantLeader, ClassPipelined, 100, Mark{}, 0)
		rg.Add(PhaseDrain, obs.VariantFollower, ClassPipelined, 40, Mark{}, 0)
		rg.Add(PhaseEmulate, obs.Variant(2), ClassBarrier, 64, Mark{}, 64)
		rg.Flush()
	}); n != 0 {
		t.Fatalf("Flush allocates %v/op", n)
	}
	if rec.Total() == 0 {
		t.Fatal("Flush recorded nothing")
	}
	var nilRg *Region
	if n := testing.AllocsPerRun(200, func() { nilRg.Flush() }); n != 0 {
		t.Fatalf("nil Flush allocates %v/op", n)
	}
}

func TestTableText(t *testing.T) {
	l := New()
	l.SetRun("pipelined", "kill-both", 16)
	l.Region("vuln").Add(PhaseEnqueue, obs.VariantLeader, ClassPipelined, 250, Mark{}, 0)
	txt := l.TableText()
	for _, want := range []string{"mode=pipelined", "lag=16", "vuln", "enqueue", "250"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("TableText missing %q:\n%s", want, txt)
		}
	}
	var nilL *Ledger
	if got := nilL.TableText(); !strings.Contains(got, "mode=-") {
		t.Fatalf("nil TableText: %q", got)
	}
}

func TestPublishTo(t *testing.T) {
	l := New()
	l.Region("vuln").Add(PhaseWait, obs.VariantLeader, ClassPipelined, 777, Mark{}, 0)
	m := obs.NewMetrics()
	l.PublishTo(m)
	g, ok := m.Gauge("ledger.cycles{class=pipelined,phase=wait,region=vuln,variant=leader}")
	if !ok || g != 777 {
		t.Fatalf("published gauge = %v, %v", g, ok)
	}
}
