package perfprof

import (
	"strings"
	"testing"

	"smvx/internal/obs"
	"smvx/internal/sim/clock"
)

func TestInclusiveAttribution(t *testing.T) {
	p := New()
	// main -> worker -> handler, with inclusive cycles reported at exit.
	p.OnEnter(1, "main")
	p.OnEnter(1, "worker")
	p.OnEnter(1, "handler")
	p.OnExit(1, "handler", 100)
	p.OnExit(1, "worker", 300)
	p.OnExit(1, "main", 1000)

	if got := p.Inclusive("main"); got != 1000 {
		t.Errorf("main inclusive = %d", got)
	}
	if got := p.Inclusive("worker"); got != 300 {
		t.Errorf("worker inclusive = %d", got)
	}
	if got := p.Calls("handler"); got != 1 {
		t.Errorf("handler calls = %d", got)
	}
}

func TestRecursionNotDoubleCounted(t *testing.T) {
	p := New()
	p.OnEnter(1, "f")
	p.OnEnter(1, "f") // recursive
	p.OnExit(1, "f", 50)
	p.OnExit(1, "f", 200)
	if got := p.Inclusive("f"); got != 200 {
		t.Errorf("recursive inclusive = %d, want 200 (outermost only)", got)
	}
	if got := p.Calls("f"); got != 1 {
		t.Errorf("recursive calls = %d, want 1", got)
	}
}

func TestRepeatedCallsAccumulate(t *testing.T) {
	p := New()
	for i := 0; i < 3; i++ {
		p.OnEnter(1, "req")
		p.OnExit(1, "req", 10)
	}
	if got := p.Inclusive("req"); got != 30 {
		t.Errorf("inclusive = %d", got)
	}
	if got := p.Calls("req"); got != 3 {
		t.Errorf("calls = %d", got)
	}
}

func TestThreadsIndependent(t *testing.T) {
	p := New()
	p.OnEnter(1, "a")
	p.OnEnter(2, "a")
	p.OnExit(2, "a", 5)
	p.OnExit(1, "a", 7)
	if got := p.Inclusive("a"); got != 12 {
		t.Errorf("cross-thread inclusive = %d", got)
	}
}

func TestPercentAndReport(t *testing.T) {
	p := New()
	p.OnEnter(1, "big")
	p.OnExit(1, "big", 600)
	p.OnEnter(1, "small")
	p.OnExit(1, "small", 100)

	if got := p.Percent("big", 1000); got != 60 {
		t.Errorf("Percent = %v", got)
	}
	if got := p.Percent("big", 0); got != 0 {
		t.Errorf("Percent with zero total = %v", got)
	}
	rep := p.Report()
	if len(rep) != 2 || rep[0].Fn != "big" || rep[1].Fn != "small" {
		t.Errorf("Report = %+v", rep)
	}
}

func TestFlameTextAndReset(t *testing.T) {
	p := New()
	p.OnEnter(1, "hot")
	p.OnExit(1, "hot", clock.Cycles(900))
	out := p.FlameText(1000)
	if !strings.Contains(out, "hot") || !strings.Contains(out, "90.0%") {
		t.Errorf("FlameText:\n%s", out)
	}
	p.Reset()
	if p.Inclusive("hot") != 0 {
		t.Error("Reset did not clear samples")
	}
}

func TestExitWithoutEnterIgnored(t *testing.T) {
	p := New()
	p.OnExit(1, "ghost", 50)
	if p.Inclusive("ghost") != 0 {
		t.Error("unbalanced exit should be ignored")
	}
}

func TestFromTrace(t *testing.T) {
	events := []obs.Event{
		// Nested pair on tid 1: recv spans 100..400, with a memcpy inside.
		{Kind: obs.EvLibcEnter, TID: 1, Name: "recv", TS: 100},
		{Kind: obs.EvLibcEnter, TID: 1, Name: "memcpy", TS: 150},
		{Kind: obs.EvLibcExit, TID: 1, Name: "memcpy", TS: 170},
		{Kind: obs.EvLibcExit, TID: 1, Name: "recv", TS: 400},
		// Independent thread.
		{Kind: obs.EvLibcEnter, TID: 2, Name: "send", TS: 50},
		{Kind: obs.EvLibcExit, TID: 2, Name: "send", TS: 90},
		// Exit whose enter was evicted from the ring: skipped.
		{Kind: obs.EvLibcExit, TID: 3, Name: "orphan", TS: 10},
		// Non-libc events are ignored.
		{Kind: obs.EvTrampoline, TID: 1, Name: "recv", TS: 500},
	}
	p := FromTrace(events)
	if got := p.Inclusive("recv"); got != 300 {
		t.Errorf("recv inclusive = %d, want 300", got)
	}
	if got := p.Inclusive("memcpy"); got != 20 {
		t.Errorf("memcpy inclusive = %d, want 20", got)
	}
	if got := p.Inclusive("send"); got != 40 {
		t.Errorf("send inclusive = %d, want 40", got)
	}
	if got := p.Calls("recv"); got != 1 {
		t.Errorf("recv calls = %d", got)
	}
	if p.Inclusive("orphan") != 0 {
		t.Error("orphan exit (evicted enter) should be skipped")
	}
	rep := p.Report()
	if len(rep) != 3 || rep[0].Fn != "recv" {
		t.Errorf("Report = %+v", rep)
	}
}

func TestFromTraceRecorder(t *testing.T) {
	// End to end: events recorded through a live Recorder replay into the
	// same flame summary shape a live profiler would give.
	rec := obs.NewRecorder(obs.Config{Capacity: 64})
	rec.Record(obs.EvLibcEnter, obs.VariantLeader, 1, "read", 0, 0, 0)
	rec.Record(obs.EvLibcExit, obs.VariantLeader, 1, "read", 0, 0, 0)
	p := FromTrace(rec.Events())
	if got := p.Calls("read"); got != 1 {
		t.Errorf("read calls = %d", got)
	}
	if !strings.Contains(p.FlameText(100), "read") {
		t.Error("flame text missing the replayed call")
	}
}
