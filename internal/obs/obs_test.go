package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"smvx/internal/sim/clock"
)

// playScenario drives one deterministic synthetic divergence into a fresh
// recorder — the same sequence every call, like a seeded run. With
// ledger, cost-ledger events of both kinds land between each variant's
// libc events.
func playScenario(ledger bool) *Recorder {
	ctr := clock.NewCounter()
	r := NewRecorder(Config{Capacity: 64, ForensicWindow: 4, Clock: ctr})
	for i := 0; i < 6; i++ {
		ctr.Charge(100)
		r.Record(EvLibcEnter, VariantLeader, 1, "write", 1, uint64(0x5000+i), 0)
		if ledger {
			r.RecordIn("protected_fn", EvLedger, VariantLeader, 0, "libc/barrier", 60, 0, 0)
		}
		r.Record(EvLibcExit, VariantLeader, 1, "write", 0, 0, 10)
		r.Record(EvLibcEnter, VariantFollower, 2, "write", 1, uint64(0x6000+i), 0)
		if ledger {
			r.RecordIn("protected_fn", EvLedgerCell, VariantFollower, 0, "wait/barrier", 500, 2, 0)
			r.RecordIn("protected_fn", EvLedgerCell, VariantLeader, 0, "rendezvous/barrier", 2000, 1, 0)
		}
		r.Record(EvLibcExit, VariantFollower, 2, "write", 0, 0, 10)
	}
	r.Record(EvPageFault, VariantFollower, 2, "unmapped", 0xdead0, 0, 0)
	r.Alarm(AlarmInfo{
		Reason:       "follower variant fault",
		CallIndex:    7,
		Function:     "protected_fn",
		FollowerCall: "write",
		Detail:       "thread smvx-follower crashed at 0xdead0",
		Snapshots: []ThreadSnapshot{{
			Role: "follower", TID: 2, IP: 0xdead0, SP: 0x7000,
			Regs:      []uint64{1, 2, 3, 4, 5, 6, 7, 8},
			Stack:     []uint64{0xaa, 0xbb},
			CallStack: []string{"main", "protected_fn"},
		}},
	})
	return r
}

func TestForensicReportContents(t *testing.T) {
	r := playScenario(false)
	reports := r.ForensicReports()
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	rep := reports[0]
	for _, want := range []string{
		"follower variant fault",
		"protected function: protected_fn",
		"0xdead0",
		"leader: final 4 events",
		"follower: final 4 events",
		"snapshot: follower (tid 2)",
		"call stack: main > protected_fn",
		"stack[sp+8]=0xbb",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestForensicReportDeterminism is the issue's determinism property: two
// identical seeded runs must produce byte-identical forensics reports.
func TestForensicReportDeterminism(t *testing.T) {
	a := playScenario(false).ForensicReports()
	b := playScenario(false).ForensicReports()
	if len(a) != len(b) {
		t.Fatalf("report counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("report %d differs:\n--- run A ---\n%s\n--- run B ---\n%s", i, a[i], b[i])
		}
	}
}

// TestForensicTailsSkipLedgerEvents: cost-ledger bookkeeping — a
// version-1 WAL's per-charge EvLedger events and the EvLedgerCell events
// of a region's flush — takes no slot of a variant's forensic tail, so a
// run that mirrors its ledger reports exactly what a run without one does.
func TestForensicTailsSkipLedgerEvents(t *testing.T) {
	plain, mirrored := playScenario(false).ForensicReports(), playScenario(true).ForensicReports()
	if len(plain) != 1 || len(mirrored) != 1 || plain[0] != mirrored[0] {
		t.Fatalf("ledger events changed the report:\n--- without ---\n%s\n--- with ---\n%s",
			strings.Join(plain, "\n"), strings.Join(mirrored, "\n"))
	}
}

// TestForensicReportShowsFurtherSlots: past the first follower, a report
// prints a tail for each slot the ring holds events of, prefixed F2, F3
// and so on, and none for a slot it holds nothing of. A slot whose only
// events are ledger cells gets an empty tail: its own events were evicted.
func TestForensicReportShowsFurtherSlots(t *testing.T) {
	r := NewRecorder(Config{ForensicWindow: 2})
	r.Record(EvLibcEnter, VariantLeader, 1, "close", 3, 0, 0)
	r.Record(EvLibcEnter, VariantFollower, 2, "close", 3, 0, 0)
	r.Record(EvTrampoline, Variant(2), 3, "close", 0x0000000000000114, 0x200001418df8, 0x5500f64fa000)
	r.Record(EvLibcEnter, Variant(2), 3, "close", 4, 0, 0)
	r.RecordIn("protected_fn", EvLedgerCell, Variant(4), 0, "wait/barrier", 500, 2, 0)
	r.Alarm(AlarmInfo{Reason: "variant outvoted", Detail: "variant 2 outvoted 2-to-1"})
	rep := r.ForensicReports()[0]
	want := `--- follower: final 1 events ---
  [F-1] libc-enter   close(0x3, 0x0)
--- follower2: final 2 events ---
  [F2-2] trampoline   close pkru 0x114 -> 0x0 sp 0x200001418df8 -> 0x5500f64fa000
  [F2-1] libc-enter   close(0x4, 0x0)
--- follower4: final 0 events ---
=== END FLIGHT RECORDER ===
`
	if !strings.Contains(rep, want) {
		t.Errorf("report:\n%s\nwant it to end with:\n%s", rep, want)
	}
	if two := playScenario(false).ForensicReports()[0]; strings.Contains(two, "follower2") {
		t.Errorf("a pair's report prints a second follower:\n%s", two)
	}
}

func TestForensicWindowBoundedByAvailable(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8, ForensicWindow: 16})
	r.Record(EvLibcEnter, VariantLeader, 1, "open", 0, 0, 0)
	r.Alarm(AlarmInfo{Reason: "x", Detail: "d"})
	rep := r.ForensicReports()[0]
	if !strings.Contains(rep, "leader: final 1 events") {
		t.Errorf("short run should render available events only:\n%s", rep)
	}
	if !strings.Contains(rep, "follower: final 0 events") {
		t.Errorf("absent variant renders empty tail:\n%s", rep)
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := playScenario(false)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Cat  string  `json:"cat"`
			TS   float64 `json:"ts"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) != r.Len() {
		t.Fatalf("trace has %d events, recorder has %d", len(doc.TraceEvents), r.Len())
	}
	var sawB, sawE, sawInstant bool
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			sawB = true
		case "E":
			sawE = true
		case "i":
			sawInstant = true
		}
	}
	if !sawB || !sawE || !sawInstant {
		t.Errorf("trace phases missing: B=%v E=%v i=%v", sawB, sawE, sawInstant)
	}
}

// TestChromeTraceSpanIsOneCompleteEvent: a span recorded at its end
// exports as one complete (X) event that starts its duration earlier.
func TestChromeTraceSpanIsOneCompleteEvent(t *testing.T) {
	ctr := clock.NewCounter()
	r := NewRecorder(Config{Clock: ctr})
	ctr.Charge(2100)
	sp := r.BeginEmulationSpan(VariantLeader, 1, NewSpanNames("recv").Emulation, 2)
	ctr.Charge(1050)
	sp.End(4144)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"name":"emulation:recv","cat":"span:leader","ph":"X","ts":1,"dur":0.5,"pid":1,"tid":1,"args":{"cycles":"1050"}}`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("chrome trace:\n%s\nwant the span as %s", buf.String(), want)
	}
}

func TestEventTableText(t *testing.T) {
	r := playScenario(false)
	txt := r.TableText()
	if !strings.Contains(txt, "libc-enter") || !strings.Contains(txt, "page-fault") {
		t.Fatalf("table missing kinds:\n%s", txt)
	}
	if !strings.Contains(txt, "follower") {
		t.Errorf("table missing variant column:\n%s", txt)
	}
}

func TestEventKindAndVariantStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := EvLibcEnter; k <= EvSpan; k++ {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("kind %d stringifies badly: %q", k, s)
		}
		seen[s] = true
	}
	if EventKind(200).String() != "unknown" || (EvSpan+1).String() != "unknown" {
		t.Error("out-of-range kind should be unknown")
	}
	if VariantLeader.String() != "leader" || VariantFollower.String() != "follower" {
		t.Error("variant names")
	}
	if Variant(2).String() != "follower2" || Variant(MaxFollowers).String() != "follower8" {
		t.Error("later follower slots are named by their slot")
	}
	if VariantNone != MaxVariants || VariantNone.String() != "-" || Variant(200).String() != "-" {
		t.Error("none sits past the last slot and has no name")
	}
}
