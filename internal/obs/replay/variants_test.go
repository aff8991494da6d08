package replay

import (
	"reflect"
	"strings"
	"testing"

	"smvx/internal/analysis"
	"smvx/internal/experiments"
	"smvx/internal/obs"
	"smvx/internal/obs/blackbox"
)

// followerDelta mirrors core.FollowerDelta: the follower's address window
// sits at this fixed offset above the leader's.
const followerDelta = 0x2000_0000_0000

// TestDiffVariantsSynthetic exercises the two hazards of the intra-run
// diff in isolation: (1) leader-only setup calls outside any protected
// region must not be compared at all, and (2) inside a region, pointer
// arguments and pointer returns carry the follower's address-window offset
// and must be excluded from the comparison — only a scalar difference (here
// a strcmp verdict) is a real divergence.
func TestDiffVariantsSynthetic(t *testing.T) {
	const lTID, fTID = 1, 2
	lc := func(kind obs.EventKind, v obs.Variant, tid int, fn, name string, a0, a1, ret uint64) obs.Event {
		return obs.Event{Kind: kind, Variant: v, TID: tid, Fn: fn, Name: name, Arg0: a0, Arg1: a1, Ret: ret}
	}
	call := func(v obs.Variant, tid int, fn, name string, a0, a1, ret uint64) []obs.Event {
		return []obs.Event{
			lc(obs.EvLibcEnter, v, tid, fn, name, a0, a1, 0),
			lc(obs.EvLibcExit, v, tid, fn, name, 0, 0, ret),
		}
	}
	var evs []obs.Event
	// Pre-region leader setup: no follower exists yet, must be filtered out.
	evs = append(evs, call(obs.VariantLeader, lTID, "main", "socket", 2, 1, 3)...)
	evs = append(evs, lc(obs.EvRegionStart, obs.VariantLeader, lTID, "handler", "handler", 0, 0, 0))
	// In-region matched calls: pointer args/rets differ by the window
	// offset, scalars agree.
	evs = append(evs, call(obs.VariantLeader, lTID, "handler", "strlen", 0x1000, 0, 4)...)
	evs = append(evs, call(obs.VariantFollower, fTID, "handler", "strlen", 0x1000+followerDelta, 0, 4)...)
	evs = append(evs, call(obs.VariantLeader, lTID, "handler", "memcpy", 0x2000, 0x1000, 0x2000)...)
	evs = append(evs, call(obs.VariantFollower, fTID, "handler", "memcpy", 0x2000+followerDelta, 0x1000+followerDelta, 0x2000+followerDelta)...)
	evs = append(evs, call(obs.VariantLeader, lTID, "handler", "read", 5, 0x3000, 10)...)
	evs = append(evs, call(obs.VariantFollower, fTID, "handler", "read", 5, 0x3000+followerDelta, 10)...)
	// The real divergence: same call, same (pointer) args, different scalar
	// verdict.
	evs = append(evs, call(obs.VariantLeader, lTID, "auth", "strcmp", 0x4000, 0x5000, 0)...)
	evs = append(evs, call(obs.VariantFollower, fTID, "auth", "strcmp", 0x4000+followerDelta, 0x5000+followerDelta, 1)...)
	// A second follower matches the leader on every scalar, so only the
	// first follower's stream diverges.
	f2, f2TID := obs.Variant(2), 3
	evs = append(evs, call(f2, f2TID, "handler", "strlen", 0x1000+2*followerDelta, 0, 4)...)
	evs = append(evs, call(f2, f2TID, "handler", "memcpy", 0x2000+2*followerDelta, 0x1000+2*followerDelta, 0x2000+2*followerDelta)...)
	evs = append(evs, call(f2, f2TID, "handler", "read", 5, 0x3000+2*followerDelta, 10)...)
	evs = append(evs, call(f2, f2TID, "auth", "strcmp", 0x4000+2*followerDelta, 0x5000+2*followerDelta, 0)...)
	evs = append(evs, lc(obs.EvRegionEnd, obs.VariantLeader, lTID, "handler", "handler", 0, 0, 0))

	r := &Replay{Run: &blackbox.Run{Events: evs, Meta: blackbox.Meta{Capacity: 64}}}
	divs := r.DiffVariants(2)
	if len(divs) != 1 {
		t.Fatalf("diverging followers = %d, want 1 (the first follower only): %+v", len(divs), divs)
	}
	d := divs[0]
	if d.Follower != obs.VariantFollower {
		t.Errorf("diverging follower = %v, want follower", d.Follower)
	}
	if d.Index != 3 {
		t.Errorf("divergence at call #%d, want #3 (bias or region filtering broke)", d.Index)
	}
	if d.Kind != analysis.DivMismatch {
		t.Errorf("Kind = %v, want mismatch", d.Kind)
	}
	if d.A == nil || d.A.Name != "strcmp" || d.B == nil || d.B.Name != "strcmp" {
		t.Fatalf("divergent calls = %v vs %v, want strcmp on both sides", d.A, d.B)
	}
	if d.Function() != "auth" {
		t.Errorf("Function() = %q, want auth", d.Function())
	}
}

// TestDiffVariantsIdenticalStreams: a benign in-region exchange with
// pointer bias on every follower value must compare identical.
func TestDiffVariantsIdenticalStreams(t *testing.T) {
	evs := []obs.Event{
		{Kind: obs.EvRegionStart, Variant: obs.VariantLeader, TID: 1, Name: "handler"},
		{Kind: obs.EvLibcEnter, Variant: obs.VariantLeader, TID: 1, Fn: "f", Name: "strlen", Arg0: 0x1000},
		{Kind: obs.EvLibcExit, Variant: obs.VariantLeader, TID: 1, Fn: "f", Name: "strlen", Ret: 7},
		{Kind: obs.EvLibcEnter, Variant: obs.VariantFollower, TID: 2, Fn: "f", Name: "strlen", Arg0: 0x1000 + followerDelta},
		{Kind: obs.EvLibcExit, Variant: obs.VariantFollower, TID: 2, Fn: "f", Name: "strlen", Ret: 7},
		{Kind: obs.EvRegionEnd, Variant: obs.VariantLeader, TID: 1, Name: "handler"},
	}
	r := &Replay{Run: &blackbox.Run{Events: evs}}
	for _, d := range r.DiffVariants(0) {
		t.Errorf("identical biased streams diverged: %s", d.Format("leader", d.Follower.String()))
	}
}

// TestDiffVariantsRecordedAttack is the end-to-end acceptance for the
// intra-run mode: record the Section 4.2 CVE run through the black-box WAL,
// then the offline leader-vs-follower diff must find the follower's stream
// ending (it faulted on the corrupted return address) while the leader —
// briefly hijacked before the monitor killed the exchange — goes on to
// issue the exploit's mkdir. That is the same story the live alarm told,
// reconstructed purely from disk.
func TestDiffVariantsRecordedAttack(t *testing.T) {
	dir := t.TempDir()
	rec := obs.NewRecorder(obs.Config{})
	cfg := rec.Config()
	w, err := blackbox.Open(dir, blackbox.Meta{
		Capacity: cfg.Capacity, ForensicWindow: cfg.ForensicWindow,
		Labels: map[string]string{"artifact": "cve"},
	}, blackbox.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetSink(w)
	if _, err := experiments.CVEObserved(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	divs := r.DiffVariants(0)
	if len(divs) != 1 {
		t.Fatalf("diverging followers = %d, want the one follower of the pair", len(divs))
	}
	d := divs[0]
	if d.Kind != analysis.DivPrefix || d.B != nil {
		t.Errorf("Kind = %v, B = %v; want the follower stream to end (prefix-exhausted)", d.Kind, d.B)
	}
	if d.A == nil || d.A.Name != "mkdir" {
		t.Errorf("leader's divergent call = %v, want the exploit's mkdir", d.A)
	}
	out := d.Format("leader", "follower")
	if !strings.Contains(out, "sequence ended") {
		t.Errorf("formatted diff missing the ended-stream marker:\n%s", out)
	}
}

// TestSinkDoesNotPerturbRendezvousCycles is the hot-path acceptance
// criterion: WAL spilling happens in host time, never on the virtual
// clock, so the rendezvous cycle histograms of a sink-backed run must be
// *exactly* equal to an unsinked run's — not within 10%, identical.
func TestSinkDoesNotPerturbRendezvousCycles(t *testing.T) {
	run := func(sink bool) obs.Hist {
		rec := obs.NewRecorder(obs.Config{})
		if sink {
			cfg := rec.Config()
			w, err := blackbox.Open(t.TempDir(), blackbox.Meta{
				Capacity: cfg.Capacity, ForensicWindow: cfg.ForensicWindow,
			}, blackbox.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			rec.SetSink(w)
			defer func() {
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}()
		}
		if _, err := experiments.CVEObserved(rec); err != nil {
			t.Fatal(err)
		}
		return rec.Metrics().MergedHistogram("rendezvous.cycles")
	}
	bare := run(false)
	sunk := run(true)
	if bare.Count == 0 {
		t.Fatal("no rendezvous samples recorded")
	}
	if !reflect.DeepEqual(bare, sunk) {
		t.Errorf("rendezvous histograms differ with sink attached:\nbare: %+v\nsunk: %+v", bare, sunk)
	}
}
