package obs

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestRingWraparound(t *testing.T) {
	r := NewRecorder(Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		r.Record(EvSyscall, VariantLeader, 1, "read", uint64(i), 0, 0)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("len = %d, want 4", got)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("total = %d, want 10", got)
	}
	ev := r.Events()
	for i, e := range ev {
		if want := uint64(6 + i); e.Arg0 != want {
			t.Errorf("event %d: arg0 = %d, want %d (oldest evicted first)", i, e.Arg0, want)
		}
		if e.Seq != uint64(7+i) {
			t.Errorf("event %d: seq = %d, want %d", i, e.Seq, 7+i)
		}
	}
}

func TestRingCapacityOne(t *testing.T) {
	r := NewRecorder(Config{Capacity: 1})
	if got := r.Events(); len(got) != 0 {
		t.Fatalf("fresh ring has %d events", len(got))
	}
	for i := 0; i < 5; i++ {
		r.Record(EvLibcEnter, VariantFollower, 2, "recv", uint64(i), 0, 0)
		ev := r.Events()
		if len(ev) != 1 {
			t.Fatalf("after %d pushes: len = %d, want 1", i+1, len(ev))
		}
		if ev[0].Arg0 != uint64(i) {
			t.Errorf("after %d pushes: holds arg0=%d, want %d", i+1, ev[0].Arg0, i)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRecorder(Config{Capacity: 64})
	r.Record(EvAlarm, VariantNone, 0, "x", 0, 0, 0)
	r.Record(EvAlarm, VariantNone, 0, "y", 0, 0, 0)
	ev := r.Events()
	if len(ev) != 2 || ev[0].Name != "x" || ev[1].Name != "y" {
		t.Fatalf("partial fill snapshot = %+v", ev)
	}
}

// TestRingConcurrentAppendOrdering is the testing/quick property of the
// issue: with a leader goroutine and a follower goroutine appending
// concurrently, (1) the ring holds min(cap, total) events, (2) global
// seqs are strictly increasing, and (3) each variant's surviving events
// preserve that variant's own append order (strictly increasing VSeq and
// per-goroutine payload order).
func TestRingConcurrentAppendOrdering(t *testing.T) {
	prop := func(nLeader, nFollower uint8, capRaw uint8) bool {
		capacity := int(capRaw%200) + 1
		r := NewRecorder(Config{Capacity: capacity})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < int(nLeader); i++ {
				r.Record(EvLibcEnter, VariantLeader, 1, "write", uint64(i), 0, 0)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < int(nFollower); i++ {
				r.Record(EvLibcEnter, VariantFollower, 2, "write", uint64(i), 0, 0)
			}
		}()
		wg.Wait()

		total := int(nLeader) + int(nFollower)
		want := total
		if capacity < want {
			want = capacity
		}
		ev := r.Events()
		if len(ev) != want {
			t.Logf("len = %d, want %d", len(ev), want)
			return false
		}
		if r.Total() != uint64(total) {
			return false
		}
		var lastSeq uint64
		lastVSeq := map[Variant]uint64{}
		lastPayload := map[Variant]int64{VariantLeader: -1, VariantFollower: -1}
		for _, e := range ev {
			if e.Seq <= lastSeq {
				t.Logf("seq not increasing: %d after %d", e.Seq, lastSeq)
				return false
			}
			lastSeq = e.Seq
			if e.VSeq <= lastVSeq[e.Variant] {
				t.Logf("variant %s vseq not increasing", e.Variant)
				return false
			}
			lastVSeq[e.Variant] = e.VSeq
			if int64(e.Arg0) <= lastPayload[e.Variant] {
				t.Logf("variant %s payload order violated", e.Variant)
				return false
			}
			lastPayload[e.Variant] = int64(e.Arg0)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	// None of these may panic or allocate observable state.
	r.Record(EvLibcEnter, VariantLeader, 1, "read", 1, 2, 3)
	r.RecordAt(0, EvLibcExit, VariantLeader, 1, "read", 0, 0, 0)
	r.Alarm(AlarmInfo{Reason: "x"})
	r.Metrics().Inc("n")
	r.Metrics().Observe("h", 4)
	r.Metrics().SetGauge("g", 1.5)
	r.BeginRendezvousSpan(VariantLeader, 1, "read", 2).End(0)
	r.BeginEmulationSpan(VariantLeader, 1, "read", 2).End(64)
	r.BeginVariantCreateSpan(1, "f").End(3)
	if got := r.Events(); got != nil {
		t.Errorf("nil recorder events = %v", got)
	}
	if r.Len() != 0 || r.Total() != 0 || r.AlarmCount() != 0 {
		t.Error("nil recorder has state")
	}
	if got := r.ForensicReports(); got != nil {
		t.Errorf("nil recorder reports = %v", got)
	}
	if s := r.Metrics().Snapshot(); len(s) != 0 {
		t.Errorf("nil metrics snapshot = %v", s)
	}
}

func TestNilRecordDoesNotAllocate(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		r.Record(EvLibcEnter, VariantLeader, 1, "read", 1, 2, 3)
		r.Metrics().Inc("x")
		sp := r.BeginRendezvousSpan(VariantLeader, 1, "read", 2)
		sp.End(0)
		esp := r.BeginEmulationSpan(VariantLeader, 1, "read", 2)
		esp.End(128)
		vsp := r.BeginVariantCreateSpan(1, "handle_input")
		vsp.End(9)
	})
	if allocs != 0 {
		t.Errorf("nil recorder path allocates %.1f per op", allocs)
	}
}

// TestEnabledRecordNoSinkDoesNotAllocate pins the sink hook's hot-path
// contract: an *enabled* recorder with no sink configured must keep
// Record/RecordIn allocation-free — the ring stores events by value and the
// nil-sink branch must not box anything.
func TestEnabledRecordNoSinkDoesNotAllocate(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8})
	// Pre-warm so the steady state (full ring, evicting) is what's measured.
	for i := 0; i < 16; i++ {
		r.Record(EvLibcEnter, VariantLeader, 1, "read", 1, 2, 3)
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.Record(EvLibcEnter, VariantLeader, 1, "read", 1, 2, 3)
		r.RecordIn("handler", EvLibcExit, VariantLeader, 1, "read", 0, 0, 7)
		r.RecordAt(5, EvLockstep, VariantFollower, 2, "read", 0, 0, 0)
	})
	if allocs != 0 {
		t.Errorf("enabled recorder without sink allocates %.1f per op", allocs)
	}
}

// TestEvictionCounter is the satellite's loss metric: silent ring
// overwrites must be counted, and Total-Len must agree with the counter in
// the sink-less case.
func TestEvictionCounter(t *testing.T) {
	r := NewRecorder(Config{Capacity: 4})
	for i := 0; i < 3; i++ {
		r.Record(EvSyscall, VariantLeader, 1, "read", 0, 0, 0)
	}
	if got := r.Evicted(); got != 0 {
		t.Fatalf("evicted = %d before the ring filled", got)
	}
	for i := 0; i < 7; i++ {
		r.Record(EvSyscall, VariantLeader, 1, "read", 0, 0, 0)
	}
	if got := r.Evicted(); got != 6 {
		t.Fatalf("evicted = %d, want 6", got)
	}
	if want := r.Total() - uint64(r.Len()); r.Evicted() != want {
		t.Errorf("evicted %d != total-len %d", r.Evicted(), want)
	}
	r.PublishDerived()
	if g, ok := r.Metrics().Gauge("events.evicted"); !ok || g != 6 {
		t.Errorf("events.evicted gauge = %v ok=%v, want 6", g, ok)
	}
	if g, ok := r.Metrics().Gauge("events.buffered"); !ok || g != 4 {
		t.Errorf("events.buffered gauge = %v ok=%v, want 4", g, ok)
	}
}

func TestSpanRecordsEventsAndHistogram(t *testing.T) {
	r := NewRecorder(Config{})
	sp := r.BeginRendezvousSpan(VariantLeader, 1, "read", 2)
	sp.End(42)
	ev := r.Events()
	if len(ev) != 2 || ev[0].Kind != EvSpanBegin || ev[1].Kind != EvSpanEnd {
		t.Fatalf("span events = %+v", ev)
	}
	if ev[0].Name != "rendezvous:read" || ev[0].Arg0 != 2 {
		t.Errorf("begin event = %+v", ev[0])
	}
	if ev[1].Ret != 42 {
		t.Errorf("end event ret = %d, want 42", ev[1].Ret)
	}
	h := r.Metrics().Histogram("rendezvous.cycles{category=ret_buf}")
	if h.Count != 1 {
		t.Errorf("labeled histogram count = %d, want 1", h.Count)
	}
	if got := RendezvousMetricName(2); got != "rendezvous.cycles{category=ret_buf}" {
		t.Errorf("RendezvousMetricName(2) = %q", got)
	}
	if got := CategoryLabel(99); got != "unknown" {
		t.Errorf("CategoryLabel(99) = %q", got)
	}
}
