package blackbox

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smvx/internal/obs"
	"smvx/internal/sim/clock"
)

func testMeta() Meta {
	return Meta{Capacity: 64, ForensicWindow: 4, Labels: map[string]string{"app": "test", "seed": "42"}}
}

// record a deterministic stream through a recorder wired to a WAL writer.
func writeScenario(t *testing.T, dir string, opts Options) *obs.Recorder {
	t.Helper()
	ctr := clock.NewCounter()
	rec := obs.NewRecorder(obs.Config{Capacity: 64, ForensicWindow: 4, Clock: ctr})
	w, err := Open(dir, testMeta(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetSink(w)
	for i := 0; i < 6; i++ {
		ctr.Charge(100)
		rec.RecordIn("handler", obs.EvLibcEnter, obs.VariantLeader, 1, "write", 1, uint64(0x5000+i), 0)
		rec.RecordIn("handler", obs.EvLibcExit, obs.VariantLeader, 1, "write", 0, 0, 10)
	}
	// Version 4's libc calls, one that returned and one that unwound,
	// carry the extra fields.
	for _, flags := range []obs.EventFlags{obs.FlagIntercepted, obs.FlagIntercepted | obs.FlagUnreturned} {
		ctr.Charge(100)
		rec.RecordEvent(&obs.Event{
			TS: ctr.Cycles() - 40, Kind: obs.EvLibcCall, Variant: obs.VariantFollower, Flags: flags,
			TID: 2, Fn: "handler", Name: "recv", Arg0: 3, Arg1: 0x5500_0000_1000, Ret: 312,
			Dur: 40, PKRU: 0x5555_5550 | 0x4<<32, SP: 0x7ffc_fffc_fde8, SafeSP: 0x5500_f64f_5000,
		})
	}
	rec.Alarm(obs.AlarmInfo{
		Reason: "follower variant fault", CallIndex: 7, Function: "protected_fn",
		FollowerCall: "write", Detail: "thread crashed at 0xdead0",
		Snapshots: []obs.ThreadSnapshot{{
			Role: "follower", TID: 2, IP: 0xdead0, SP: 0x7000,
			Regs: []uint64{1, 2, 3}, Stack: []uint64{0xaa, 0xbb},
			CallStack: []string{"main", "protected_fn"},
		}},
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRoundTripEventsAndAlarms(t *testing.T) {
	dir := t.TempDir()
	rec := writeScenario(t, dir, Options{NoSync: true})

	run, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Damage) != 0 {
		t.Fatalf("clean WAL reports damage: %v", run.Damage)
	}
	if run.Meta.Capacity != 64 || run.Meta.ForensicWindow != 4 {
		t.Errorf("meta = %+v", run.Meta)
	}
	if run.Meta.Labels["app"] != "test" || run.Meta.Labels["seed"] != "42" {
		t.Errorf("labels = %v", run.Meta.Labels)
	}
	live := rec.Events()
	if !reflect.DeepEqual(run.Events, live) {
		t.Fatalf("WAL events differ from live ring:\nwal:  %+v\nlive: %+v", run.Events, live)
	}
	if len(run.Alarms) != 1 {
		t.Fatalf("alarms = %d, want 1", len(run.Alarms))
	}
	if !reflect.DeepEqual(run.Alarms[0], rec.Alarms()[0]) {
		t.Errorf("alarm round trip:\nwal:  %+v\nlive: %+v", run.Alarms[0], rec.Alarms()[0])
	}
	// Fn attribution survives the round trip.
	if run.Events[0].Fn != "handler" {
		t.Errorf("event Fn = %q, want handler", run.Events[0].Fn)
	}
}

// TestMetaFormatVersions: the reader decodes the meta record of a
// version-1 WAL (per-charge ledger events), of a version-2 one
// (per-region ledger cells), of a version-3 one (one trampoline event per
// pass, one event per span) and of a version-4 one (one libc-call event
// per call), and refuses any other version, so an older reader cannot
// mistake a newer WAL for one it would misrender.
func TestMetaFormatVersions(t *testing.T) {
	want := testMeta()
	payload := appendMeta(nil, want)[1:]
	if v, _ := binary.Uvarint(payload); v != FormatVersion || FormatVersion != 4 {
		t.Fatalf("meta written as version %d, FormatVersion %d: want 4", v, FormatVersion)
	}
	// The version is the payload's first uvarint; re-stamp it.
	rest := payload[1:]
	for ver, ok := range map[uint64]bool{0: false, 1: true, 2: true, 3: true, 4: true, 5: false} {
		m, err := decodeMeta(append(binary.AppendUvarint(nil, ver), rest...))
		if ok && (err != nil || !reflect.DeepEqual(m, want)) {
			t.Errorf("version %d: meta %+v, %v; want %+v", ver, m, err, want)
		}
		if !ok && (err == nil || !strings.Contains(err.Error(), "unsupported WAL format version")) {
			t.Errorf("version %d decoded (err %v), want it refused", ver, err)
		}
	}
}

func TestWALOutlivesRingEviction(t *testing.T) {
	dir := t.TempDir()
	ctr := clock.NewCounter()
	rec := obs.NewRecorder(obs.Config{Capacity: 4, Clock: ctr})
	w, err := Open(dir, Meta{Capacity: 4, ForensicWindow: 2}, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetSink(w)
	for i := 0; i < 100; i++ {
		rec.Record(obs.EvSyscall, obs.VariantLeader, 1, "read", uint64(i), 0, 0)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 4 || rec.Evicted() != 96 {
		t.Fatalf("ring len=%d evicted=%d", rec.Len(), rec.Evicted())
	}
	run, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Events) != 100 {
		t.Fatalf("WAL holds %d events, want all 100 despite ring eviction", len(run.Events))
	}
	for i, e := range run.Events {
		if e.Arg0 != uint64(i) || e.Seq != uint64(i+1) {
			t.Fatalf("event %d: arg0=%d seq=%d", i, e.Arg0, e.Seq)
		}
	}
}

func TestSegmentRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewMetrics()
	// Tiny segments force rotation; cap retention at 3.
	w, err := Open(dir, testMeta(), Options{SegmentBytes: 512, MaxSegments: 3, Metrics: m, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		w.SinkEvent(obs.Event{Seq: uint64(i + 1), Kind: obs.EvSyscall, Name: "read", Arg0: uint64(i)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 4 { // 3 sealed + the active one
		t.Fatalf("retention kept %d segments, cap is 3 sealed + 1 active", len(segs))
	}
	if m.Counter("blackbox.segments.rotated") == 0 {
		t.Error("no rotations counted")
	}
	if m.Counter("blackbox.segments.dropped") == 0 {
		t.Error("no retention drops counted")
	}
	if m.Counter("blackbox.bytes.written") == 0 || m.Counter("blackbox.records.written") == 0 {
		t.Error("byte/record counters not fed")
	}

	// The surviving suffix is still self-describing and ordered.
	run, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Damage) != 0 {
		t.Fatalf("damage after retention: %v", run.Damage)
	}
	if run.Meta.Capacity != 64 {
		t.Errorf("meta lost after retention: %+v", run.Meta)
	}
	if len(run.Events) == 0 || len(run.Events) == 400 {
		t.Errorf("expected a strict suffix of events, got %d/400", len(run.Events))
	}
	first := run.Events[0].Seq
	for i, e := range run.Events {
		if e.Seq != first+uint64(i) {
			t.Fatalf("gap in surviving suffix at %d: seq %d follows %d", i, e.Seq, first)
		}
	}
}

// TestCorruptionHandling is the satellite's table: every damage mode must
// yield a clean partial read — all records up to the damage, a note, no
// error, no panic.
func TestCorruptionHandling(t *testing.T) {
	type tc struct {
		name       string
		corrupt    func(t *testing.T, dir string)
		wantEvents int // -2 = "strictly fewer than all"
		wantAlarms int
		wantNote   string
	}
	const scenarioEvents = 15 // 6 enter/exit pairs, 2 libc calls + EvAlarm
	cases := []tc{
		{
			name: "truncated-final-record",
			corrupt: func(t *testing.T, dir string) {
				seg := lastSegment(t, dir)
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				// Chop the last 3 bytes: the final record — the alarm, written
				// after its EvAlarm event — loses its checksum.
				if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantEvents: scenarioEvents, // every event precedes the damage
			wantAlarms: 0,              // the alarm record itself is lost
			wantNote:   "truncated",
		},
		{
			name: "bit-flipped-crc-frame",
			corrupt: func(t *testing.T, dir string) {
				seg := lastSegment(t, dir)
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				// Flip one payload bit roughly mid-file: that record's CRC fails.
				data[len(data)/2] ^= 0x40
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantEvents: -2, // strictly fewer than all, exact count depends on framing
			wantAlarms: 0,  // the alarm record trails the flipped bit
			wantNote:   "checksum mismatch",
		},
		{
			name: "empty-segment-file",
			corrupt: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, segmentName(99)), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantEvents: scenarioEvents,
			wantAlarms: 1,
			wantNote:   "empty segment",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeScenario(t, dir, Options{NoSync: true})
			c.corrupt(t, dir)
			run, err := ReadDir(dir)
			if err != nil {
				t.Fatalf("damaged WAL must read partially, got error: %v", err)
			}
			switch c.wantEvents {
			case -2:
				if len(run.Events) >= scenarioEvents {
					t.Errorf("read %d events through the corruption", len(run.Events))
				}
			default:
				if len(run.Events) != c.wantEvents {
					t.Errorf("events = %d, want %d", len(run.Events), c.wantEvents)
				}
			}
			if len(run.Alarms) != c.wantAlarms {
				t.Errorf("alarms = %d, want %d", len(run.Alarms), c.wantAlarms)
			}
			if len(run.Damage) == 0 {
				t.Fatal("damage went unreported")
			}
			found := false
			for _, d := range run.Damage {
				if strings.Contains(d, c.wantNote) {
					found = true
				}
			}
			if !found {
				t.Errorf("damage notes %v missing %q", run.Damage, c.wantNote)
			}
			// Events that did survive are intact and ordered.
			for i := 1; i < len(run.Events); i++ {
				if run.Events[i].Seq != run.Events[i-1].Seq+1 {
					t.Fatalf("surviving events out of order at %d", i)
				}
			}
		})
	}
}

func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := segmentFiles(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	return segs[len(segs)-1]
}

func TestReadDirEmptyDirErrors(t *testing.T) {
	if _, err := ReadDir(t.TempDir()); err == nil {
		t.Fatal("directory without segments must error")
	}
}

func TestWriterSnapshotStats(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	w.SinkEvent(obs.Event{Seq: 1, Kind: obs.EvSyscall, Name: "read"})
	st := w.Snapshot()
	if st.Dir != dir || len(st.Segments) != 1 || st.TotalBytes == 0 {
		t.Errorf("snapshot = %+v", st)
	}
	if st.Closed {
		t.Error("snapshot reports closed while open")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !w.Snapshot().Closed {
		t.Error("snapshot must report closed after Close")
	}
}

func TestSinkAfterCloseCountsDrops(t *testing.T) {
	m := obs.NewMetrics()
	w, err := Open(t.TempDir(), testMeta(), Options{Metrics: m, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w.SinkEvent(obs.Event{Seq: 1})
	if m.Counter("blackbox.sink.drops") != 1 {
		t.Errorf("drops = %d, want 1", m.Counter("blackbox.sink.drops"))
	}
}
