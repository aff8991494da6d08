package ledger

import (
	"bytes"
	"strings"
	"testing"

	"smvx/internal/obs"
)

func TestPhaseClassNameRoundtrip(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		for c := Class(0); c < NumClasses; c++ {
			name := PhaseClassName(p, c)
			gp, gc, ok := ParsePhaseClass(name)
			if !ok || gp != p || gc != c {
				t.Fatalf("roundtrip %q: got (%v, %v, %v), want (%v, %v, true)",
					name, gp, gc, ok, p, c)
			}
		}
	}
	if _, _, ok := ParsePhaseClass("nonsense"); ok {
		t.Fatal("ParsePhaseClass accepted a name with no slash")
	}
	if _, _, ok := ParsePhaseClass("wait/bogus"); ok {
		t.Fatal("ParsePhaseClass accepted an unknown class")
	}
}

func TestClassOf(t *testing.T) {
	// malloc is local, read is pipelined, write is a barrier in the libc
	// sync tables; the ledger classes must mirror them by code.
	cases := map[string]Class{"malloc": ClassLocal, "read": ClassPipelined, "write": ClassBarrier}
	for name, want := range cases {
		if got := ClassOf(name); got != want {
			t.Errorf("ClassOf(%q) = %v, want %v", name, got, want)
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

func TestRecorderMirrorAndRawRebuild(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{})
	live := New()
	live.SetRun("pipelined", "kill-both", 16)
	live.SetRecorder(rec)
	rg := live.Region("vuln")
	rg.Add(PhaseEnqueue, obs.VariantLeader, ClassPipelined, 250, Mark{}, 0)
	rg.Add(PhaseWait, obs.VariantLeader, ClassPipelined, 120, Mark{}, 0)
	rg.Add(PhaseEmulate, obs.VariantFollower, ClassPipelined, 64, Mark{}, 64)

	// Fold the mirrored events back into a fresh ledger, as replay does.
	rebuilt := New()
	rebuilt.SetRun("pipelined", "kill-both", 16)
	n := 0
	for _, e := range rec.Events() {
		if e.Kind != obs.EvLedger {
			continue
		}
		p, c, ok := ParsePhaseClass(e.Name)
		if !ok {
			t.Fatalf("unparseable EvLedger name %q", e.Name)
		}
		rebuilt.Region(e.Fn).AddRaw(p, e.Variant, c, 1, e.Arg0, e.Arg1, e.Ret)
		n++
	}
	if n != 3 {
		t.Fatalf("mirrored events = %d, want 3", n)
	}

	var a, b bytes.Buffer
	if err := live.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("rebuilt ledger differs from live:\nlive:\n%s\nrebuilt:\n%s", a.String(), b.String())
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
	rg.AddRaw(PhaseLibc, obs.VariantLeader, ClassLocal, 1, 1, 0, 0)
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
	// Enabled without probe or recorder: the production -ledger hot path.
	l := New()
	rg := l.Region("fn")
	if n := testing.AllocsPerRun(200, func() {
		m := rg.Mark()
		rg.Add(PhaseWait, obs.VariantLeader, ClassPipelined, 100, m, 0)
	}); n != 0 {
		t.Fatalf("enabled hot path allocates %v/op", n)
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
