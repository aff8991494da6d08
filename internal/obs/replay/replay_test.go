package replay

import (
	"bytes"
	"strings"
	"testing"

	"smvx/internal/obs"
	"smvx/internal/obs/blackbox"
	"smvx/internal/sim/clock"
)

// scenario drives a live recorder through eviction, spans, and an alarm,
// with a WAL sink attached; it returns the live recorder for comparison.
func scenario(t *testing.T, dir string) *obs.Recorder {
	t.Helper()
	ctr := clock.NewCounter()
	// Capacity 16 with ~60 events: the ring evicts most of the run, so the
	// byte-identity assertions below prove RingView truncation is right.
	rec := obs.NewRecorder(obs.Config{Capacity: 16, ForensicWindow: 4, Clock: ctr})
	w, err := blackbox.Open(dir, blackbox.Meta{Capacity: 16, ForensicWindow: 4}, blackbox.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetSink(w)
	for i := 0; i < 12; i++ {
		ctr.Charge(50)
		rec.RecordIn("ngx_http_handler", obs.EvLibcEnter, obs.VariantLeader, 1, "write", uint64(0x100+i), 64, 0)
		sp := rec.BeginRendezvousSpan(obs.VariantLeader, 1, obs.NewSpanNames("write").Rendezvous, 2)
		ctr.Charge(20)
		sp.End(64)
		rec.RecordIn("ngx_http_handler", obs.EvLibcExit, obs.VariantLeader, 1, "write", 0, 0, 64)
		rec.RecordIn("ngx_http_handler", obs.EvLibcEnter, obs.VariantFollower, 2, "write", uint64(0x100+i), 64, 0)
		rec.RecordIn("ngx_http_handler", obs.EvLibcExit, obs.VariantFollower, 2, "write", 0, 0, 64)
	}
	rec.Alarm(obs.AlarmInfo{
		Reason: "call name mismatch", CallIndex: 12, Function: "protected_fn",
		LeaderCall: "write", FollowerCall: "open",
		Detail: "leader write vs follower open",
		Snapshots: []obs.ThreadSnapshot{{
			Role: "leader", TID: 1, IP: 0x40, SP: 0x7ff0,
			Regs: []uint64{0, 1, 2, 3}, Stack: []uint64{0xdead},
			CallStack: []string{"main", "protected_fn"},
		}},
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestByteIdenticalArtifacts is the tentpole's round-trip fidelity
// criterion: forensics reports, the Chrome trace, and the event table
// regenerated offline from the WAL must equal the live outputs byte for
// byte — including when the ring evicted most of the run.
func TestByteIdenticalArtifacts(t *testing.T) {
	dir := t.TempDir()
	rec := scenario(t, dir)
	r, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Run.Damage) != 0 {
		t.Fatalf("damage: %v", r.Run.Damage)
	}

	liveReports := rec.ForensicReports()
	replayReports := r.ForensicReports()
	if len(liveReports) != 1 || len(replayReports) != 1 {
		t.Fatalf("reports: live %d, replay %d", len(liveReports), len(replayReports))
	}
	if liveReports[0] != replayReports[0] {
		t.Errorf("forensic report differs:\n--- live ---\n%s--- replay ---\n%s",
			liveReports[0], replayReports[0])
	}

	var liveTrace, replayTrace bytes.Buffer
	if err := rec.WriteChromeTrace(&liveTrace); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChromeTrace(&replayTrace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveTrace.Bytes(), replayTrace.Bytes()) {
		t.Error("chrome trace differs between live and replay")
	}

	if live, rep := rec.TableText(), r.TableText(); live != rep {
		t.Errorf("event table differs:\n--- live ---\n%s--- replay ---\n%s", live, rep)
	}
}

func TestRingViewTruncation(t *testing.T) {
	dir := t.TempDir()
	rec := scenario(t, dir)
	r, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Run.Events); got <= len(r.RingView()) {
		t.Fatalf("full stream (%d) should exceed ring view (%d)", got, len(r.RingView()))
	}
	view := r.RingView()
	if len(view) != 16 {
		t.Fatalf("ring view = %d events, want capacity 16", len(view))
	}
	live := rec.Events()
	if len(live) != len(view) {
		t.Fatalf("live ring %d vs ring view %d", len(live), len(view))
	}
	for i := range live {
		if live[i] != view[i] {
			t.Fatalf("ring view event %d differs: %+v vs %+v", i, view[i], live[i])
		}
	}
}

func TestCallsPairing(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.EvLibcEnter, Variant: obs.VariantLeader, TID: 1, Fn: "f", Name: "read", Arg0: 3, Arg1: 64},
		{Kind: obs.EvLibcExit, Variant: obs.VariantLeader, TID: 1, Fn: "f", Name: "read", Ret: 64},
		{Kind: obs.EvLockstep, Variant: obs.VariantLeader, TID: 1, Name: "read"}, // ignored
		{Kind: obs.EvLibcEnter, Variant: obs.VariantFollower, TID: 2, Fn: "f", Name: "read", Arg0: 3},
		{Kind: obs.EvLibcEnter, Variant: obs.VariantLeader, TID: 1, Fn: "g", Name: "open", Arg0: 7},
		// leader's open never exits (crash)
	}
	leader := Calls(events, obs.VariantLeader)
	if len(leader) != 2 {
		t.Fatalf("leader calls = %d, want 2", len(leader))
	}
	if !leader[0].Completed || leader[0].Ret != 64 || leader[0].Fn != "f" {
		t.Errorf("paired call = %+v", leader[0])
	}
	if leader[1].Completed {
		t.Errorf("unfinished call marked completed: %+v", leader[1])
	}
	follower := Calls(events, obs.VariantFollower)
	if len(follower) != 1 || follower[0].Completed {
		t.Errorf("follower calls = %+v", follower)
	}
}

func TestDiffCallsMismatchAndPrefix(t *testing.T) {
	a := []LibcCall{
		{Index: 0, Fn: "parse", Name: "read", Arg0: 3, Ret: 64, Completed: true},
		{Index: 1, Fn: "auth", Name: "strcmp", Arg0: 0x10, Arg1: 0x20, Ret: 0, Completed: true},
		{Index: 2, Fn: "serve", Name: "write", Arg0: 3, Ret: 128, Completed: true},
	}
	b := []LibcCall{
		a[0],
		{Index: 1, Fn: "auth", Name: "strcmp", Arg0: 0x10, Arg1: 0x20, Ret: 1, Completed: true},
		{Index: 2, Fn: "deny", Name: "write", Arg0: 3, Ret: 32, Completed: true},
	}
	d, ok := DiffCalls(a, b, 2)
	if !ok || d.Index != 1 || d.Kind.String() != "mismatch" {
		t.Fatalf("diff = %+v ok=%v", d, ok)
	}
	if d.Function() != "auth" {
		t.Errorf("attributed function = %q, want auth", d.Function())
	}
	if len(d.ContextA) != 2 || d.ContextA[1].Index != 1 {
		t.Errorf("contextA = %+v", d.ContextA)
	}
	out := d.Format("success", "fail")
	for _, want := range []string{"call #1", "auth", "strcmp", "success", "fail"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted diff missing %q:\n%s", want, out)
		}
	}

	// Prefix: b stops after the auth call.
	d, ok = DiffCalls(a, a[:1], 3)
	if !ok || d.Kind.String() != "prefix-exhausted" || d.Index != 1 {
		t.Fatalf("prefix diff = %+v ok=%v", d, ok)
	}
	if d.B != nil || d.A == nil || d.A.Fn != "auth" {
		t.Errorf("prefix sides: A=%+v B=%+v", d.A, d.B)
	}
	if out := d.Format("long", "short"); !strings.Contains(out, "sequence ended") {
		t.Errorf("prefix format missing end marker:\n%s", out)
	}

	if _, ok := DiffCalls(a, a, 2); ok {
		t.Error("identical sequences must not diverge")
	}
}

func TestRebuildMetrics(t *testing.T) {
	dir := t.TempDir()
	scenario(t, dir)
	r, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := r.RebuildMetrics()
	if got := m.Counter("replay.events.libc_enter"); got != 24 {
		t.Errorf("libc-enter count = %d, want 24", got)
	}
	if got := m.Counter("alarm.total"); got != 1 {
		t.Errorf("alarm.total = %d", got)
	}
	if got := m.Counter("alarm.reason.call_name_mismatch"); got != 1 {
		t.Errorf("alarm reason counter = %d", got)
	}
	h := m.Histogram(obs.RendezvousMetricName(2))
	if h.Count != 12 {
		t.Errorf("rendezvous histogram count = %d, want 12", h.Count)
	}
	if g, ok := m.Gauge("replay.events.total"); !ok || g == 0 {
		t.Errorf("replay.events.total gauge = %v ok=%v", g, ok)
	}
}

func TestSummary(t *testing.T) {
	dir := t.TempDir()
	scenario(t, dir)
	r, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A second follower's event and a request event, which has no
	// variant, get counts of their own: the counts sum to the total. Each
	// kind gets its count too, in kind order, and those sum to it as well.
	r.Run.Events = append(r.Run.Events,
		obs.Event{Kind: obs.EvLibcEnter, Variant: obs.Variant(2), TID: 3, Name: "write"},
		obs.Event{Kind: obs.EvRequestStart, Variant: obs.VariantNone, Name: "nginx"})
	s := r.Summary()
	for _, want := range []string{"segments: 1", "ring capacity: 16", "alarms: 1", "call name mismatch",
		"events: 63 total (leader 36, follower 24, follower2 1, none 2), ring view 16",
		"kinds: libc-enter 25, libc-exit 24, alarm 1, request-start 1, span 12\n"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestRetiredKindsReplayUnchanged: a version-2 WAL's trampoline pass (two
// pkru-write events around a stack-pivot) and its span (a span-begin and
// span-end pair) still render as they did when they were recorded — the
// same forensic lines, the same Chrome B/E pair, the same span histogram —
// and a version-3 span of the same rendezvous folds to that histogram.
func TestRetiredKindsReplayUnchanged(t *testing.T) {
	l := obs.VariantLeader
	events := []obs.Event{
		{Seq: 1, VSeq: 1, TS: 1000, Kind: obs.EvPKRUWrite, Variant: l, TID: 1, Name: "deactivate-prot"},
		{Seq: 2, VSeq: 2, TS: 1040, Kind: obs.EvStackPivot, Variant: l, TID: 1, Name: "read", Arg0: 0x7ffcfffcfde8, Arg1: 0x5500f64f5000},
		{Seq: 3, VSeq: 3, TS: 1100, Kind: obs.EvSpanBegin, Variant: l, TID: 1, Name: "rendezvous:read", Arg0: 2},
		{Seq: 4, VSeq: 4, TS: 1100, Kind: obs.EvLibcEnter, Variant: l, TID: 1, Fn: "handler", Name: "read", Arg0: 5, Arg1: 0x7ffcfffcf000},
		{Seq: 5, VSeq: 5, TS: 1900, Kind: obs.EvLibcExit, Variant: l, TID: 1, Fn: "handler", Name: "read", Ret: 64},
		{Seq: 6, VSeq: 6, TS: 2300, Kind: obs.EvSpanEnd, Variant: l, TID: 1, Name: "rendezvous:read", Arg0: 1200, Arg1: 2, Ret: 64},
		{Seq: 7, VSeq: 7, TS: 2340, Kind: obs.EvPKRUWrite, Variant: l, TID: 1, Name: "activate-prot", Arg0: 0x44},
	}
	alarms := []obs.AlarmInfo{{Reason: "argument mismatch", CallIndex: 1, Function: "handler", Detail: "d"}}

	report := obs.BuildForensicReports(alarms, events, 16)[0]
	wantTail := `--- leader: final 5 events ---
  [L-5] pkru-write   pkru=0x0
  [L-4] stack-pivot  sp 0x7ffcfffcfde8 -> 0x5500f64f5000
  [L-3] libc-enter   read(0x5, 0x7ffcfffcf000)
  [L-2] libc-exit    read -> 0x40
  [L-1] pkru-write   pkru=0x44
--- follower: final 0 events ---
`
	if !strings.Contains(report, wantTail) {
		t.Errorf("forensic report:\n%s\nwant the tails:\n%s", report, wantTail)
	}

	var trace bytes.Buffer
	if err := obs.WriteChromeTraceEvents(&trace, events); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`{"name":"deactivate-prot","cat":"pkru-write","ph":"i","ts":0.47619047619047616,"pid":1,"tid":1,"args":{"arg0":"0x0","variant":"leader"},"s":"t"}`,
		`{"name":"read","cat":"stack-pivot","ph":"i","ts":0.4952380952380952,"pid":1,"tid":1,"args":{"arg0":"0x7ffcfffcfde8","variant":"leader"},"s":"t"}`,
		`{"name":"rendezvous:read","cat":"span:leader","ph":"B","ts":0.5238095238095238,"pid":1,"tid":1}`,
		`{"name":"rendezvous:read","cat":"span:leader","ph":"E","ts":1.0952380952380951,"pid":1,"tid":1,"args":{"cycles":"1200"}}`,
	} {
		if !strings.Contains(trace.String(), want) {
			t.Errorf("chrome trace missing %s:\n%s", want, trace.String())
		}
	}

	hist := obs.RendezvousMetricName(2)
	rebuilt := (&Replay{Run: &blackbox.Run{Events: events, Alarms: alarms}}).RebuildMetrics()
	if h := rebuilt.Histogram(hist); h.Count != 1 || h.Sum != 1200 || h.Min != 1200 || h.Max != 1200 {
		t.Errorf("%s = %+v, want the one 1200-cycle span", hist, h)
	}
	for kind, n := range map[string]uint64{"pkru_write": 2, "stack_pivot": 1, "span_begin": 1, "span_end": 1} {
		if got := rebuilt.Counter("replay.events." + kind); got != n {
			t.Errorf("replay.events.%s = %d, want %d", kind, got, n)
		}
	}

	current := []obs.Event{{TS: 2300, Kind: obs.EvSpan, Variant: l, TID: 1, Name: "rendezvous:read", Arg0: 1200, Arg1: 2, Ret: 64}}
	folded := (&Replay{Run: &blackbox.Run{Events: current}}).RebuildMetrics()
	if got, want := folded.Histogram(hist), rebuilt.Histogram(hist); got != want {
		t.Errorf("a span folds to %+v, its begin/end pair to %+v", got, want)
	}
}
