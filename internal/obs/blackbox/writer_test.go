package blackbox

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smvx/internal/obs"
	"smvx/internal/sim/clock"
)

// nginxEvent is shaped like most of nginx-rollback-attack's WAL: a libc
// call record attributed to the protected request handler.
func nginxEvent() obs.Event {
	return obs.Event{
		Seq: 1, VSeq: 1, TS: 123_456_789, Kind: obs.EvLibcExit, Variant: obs.VariantLeader,
		TID: 1, Fn: "ngx_http_process_request_line", Name: "recv",
		Arg0: 3, Arg1: 0x7fff_0000, Ret: 312,
	}
}

// referenceFrame frames one payload the way every FormatVersion lays it
// out, independently of the Writer: uvarint(len) ‖ payload ‖ crc32c (LE).
func referenceFrame(payload []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
}

// referenceSegments lays payloads out into segment files: each starts with
// the magic and a meta record, and a segment is sealed after the record
// that takes it to segBytes or more.
func referenceSegments(meta Meta, payloads [][]byte, segBytes int) [][]byte {
	start := func() []byte {
		return append([]byte(Magic), referenceFrame(appendMeta(nil, meta))...)
	}
	var segs [][]byte
	cur := start()
	for _, p := range payloads {
		cur = append(cur, referenceFrame(p)...)
		if len(cur) >= segBytes {
			segs = append(segs, cur)
			cur = start()
		}
	}
	return append(segs, cur)
}

// TestVariantBytes pins the WAL's variant byte for every variant. The
// bytes predate N-variant sets (leader 0, the pair's follower 1, none 2),
// so later follower slots k encode as k+1, and a segment recorded by any
// version decodes to the same variants.
func TestVariantBytes(t *testing.T) {
	want := map[obs.Variant]byte{obs.VariantLeader: 0, obs.VariantFollower: 1, obs.VariantNone: 2}
	for k := 2; k <= obs.MaxFollowers; k++ {
		want[obs.Variant(k)] = byte(k + 1)
	}
	for v, b := range want {
		if got := variantByte(v); got != b {
			t.Errorf("variantByte(%s) = %d, want %d", v, got, b)
		}
		if got := variantOf(b); got != v {
			t.Errorf("variantOf(%d) = %s, want %s", b, got, v)
		}
		e := obs.Event{Kind: obs.EvLibcEnter, Variant: v}
		if got := appendEvent(nil, e)[2]; got != b {
			t.Errorf("appendEvent wrote variant byte %d for %s, want %d", got, v, b)
		}
		if back, err := decodeEvent(appendEvent(nil, e)[1:]); err != nil || back.Variant != v {
			t.Errorf("decodeEvent of %s = %s (%v)", v, back.Variant, err)
		}
	}
	for b := 10; b <= 255; b++ {
		if got := variantOf(byte(b)); got != obs.VariantNone {
			t.Errorf("variantOf(%d) = %s, want none", b, got)
		}
	}
}

// TestFrameBytesMatchReference writes a fixed sequence through the Writer
// and compares every segment file byte for byte with the reference
// framing: empty and long strings, maximal uvarint fields, an alarm large
// enough for a 3-byte length prefix, and at least two rotations.
func TestFrameBytesMatchReference(t *testing.T) {
	const segBytes = 4096
	long := strings.Repeat("f", 256)
	maxed := obs.Event{
		Seq: math.MaxUint64, VSeq: math.MaxUint64, TS: clock.Cycles(math.MaxUint64),
		Kind: obs.EvLibcEnter, Variant: obs.VariantFollower, TID: -1,
		Fn: long, Name: long, Arg0: math.MaxUint64, Arg1: math.MaxUint64, Ret: math.MaxUint64,
	}
	var events []obs.Event
	for i := 0; i < 60; i++ {
		e := nginxEvent()
		e.Seq, e.VSeq = uint64(i+1), uint64(i+1)
		switch i % 3 {
		case 0:
			e.Fn, e.Name = "", ""
		case 1:
			e = maxed
		}
		events = append(events, e)
	}
	stack := make([]uint64, 2000)
	for i := range stack {
		stack[i] = math.MaxUint64 - uint64(i)
	}
	alarm := obs.AlarmInfo{
		Reason: "follower variant fault", CallIndex: 42, Function: "ngx_http_parse_chunked",
		LeaderCall: "recv", FollowerCall: "mkdir", Detail: "thread crashed at 0x40002e",
		Snapshots: []obs.ThreadSnapshot{
			{Role: "leader", TID: 1, IP: 0x400010, SP: 0x7000, Regs: []uint64{1, 2, 3}, Stack: stack, CallStack: []string{"main", long}},
			{Role: "follower", TID: 2, IP: 0x40002e, SP: 0x7100, Regs: []uint64{math.MaxUint64}, Stack: []uint64{0}, CallStack: []string{""}},
		},
	}
	if n := len(appendAlarm(nil, alarm)); n < 1<<14 {
		t.Fatalf("alarm payload is %d bytes; it must need a 3-byte length prefix", n)
	}

	dir := t.TempDir()
	w, err := Open(dir, testMeta(), Options{SegmentBytes: segBytes, MaxSegments: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for i, e := range events {
		w.SinkEvent(e)
		payloads = append(payloads, appendEvent(nil, e))
		if i == len(events)/2 {
			w.SinkAlarm(alarm)
			payloads = append(payloads, appendAlarm(nil, alarm))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	want := referenceSegments(testMeta(), payloads, segBytes)
	if len(want) < 3 {
		t.Fatalf("the sequence rotates %d times, want at least 2", len(want)-1)
	}
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != len(want) {
		t.Fatalf("writer left %d segments, reference has %d", len(segs), len(want))
	}
	for i, path := range segs {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("%s: %d bytes differ from the reference's %d", filepath.Base(path), len(got), len(want[i]))
		}
	}

	run, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Damage) != 0 {
		t.Fatalf("damage: %v", run.Damage)
	}
	if !reflect.DeepEqual(run.Events, events) {
		t.Error("ReadDir events differ from the events written")
	}
	if len(run.Alarms) != 1 || !reflect.DeepEqual(run.Alarms[0], alarm) {
		t.Error("ReadDir alarm differs from the alarm written")
	}
}

// TestFailedRotationKeepsFirstErrorAndCountsEachRecordOnce removes the WAL
// directory under an open Writer, so the first rotation cannot create its
// segment. The Writer must then stop writing: every record offered is
// either written or dropped, once, and Err names the create failure.
func TestFailedRotationKeepsFirstErrorAndCountsEachRecordOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	m := obs.NewMetrics()
	w, err := Open(dir, testMeta(), Options{SegmentBytes: 512, Metrics: m, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	const events = 200
	for i := 0; i < events; i++ {
		w.SinkEvent(obs.Event{Seq: uint64(i + 1), Kind: obs.EvSyscall, Name: "read", Arg0: uint64(i)})
	}
	closeErr := w.Close()

	const offered = events + 1 // the events and the first segment's meta record
	written, drops := m.Counter("blackbox.records.written"), m.Counter("blackbox.sink.drops")
	if written+drops != offered {
		t.Errorf("records.written %d + sink.drops %d = %d, want the %d records offered",
			written, drops, written+drops, offered)
	}
	if written < 2 || drops == 0 {
		t.Errorf("records.written = %d, sink.drops = %d: want a rotation after some records, then drops", written, drops)
	}
	first := w.Err()
	if first == nil || !strings.Contains(first.Error(), segmentName(1)) {
		t.Errorf("Err() = %v, want the failure to create %s", first, segmentName(1))
	}
	if closeErr != first {
		t.Errorf("Close() = %v, want the first error %v", closeErr, first)
	}
}

// TestSinkAllocatesNothing: framing a record reuses the Writer's scratch
// buffer, so neither the sink nor a recorder feeding it allocates.
func TestSinkAllocatesNothing(t *testing.T) {
	w, err := Open(t.TempDir(), testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	e := nginxEvent()
	if n := testing.AllocsPerRun(1000, func() { w.SinkEvent(e) }); n != 0 {
		t.Errorf("SinkEvent allocates %.1f objects per event, want 0", n)
	}
	rec := obs.NewRecorder(obs.Config{Capacity: 64, Clock: clock.NewCounter()})
	rec.SetSink(w)
	if n := testing.AllocsPerRun(1000, func() {
		rec.Record(obs.EvLibcEnter, obs.VariantLeader, 1, "recv", 3, 4096, 0)
	}); n != 0 {
		t.Errorf("Recorder.Record with the WAL attached allocates %.1f objects per event, want 0", n)
	}
}

// TestPublishedCountersMatchDisk: the byte and record counters the Writer
// publishes agree with the segment files after a Flush, after a rotation
// and after Close.
func TestPublishedCountersMatchDisk(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewMetrics()
	w, err := Open(dir, testMeta(), Options{SegmentBytes: 2048, MaxSegments: -1, Metrics: m, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		segs, err := segmentFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		var size int64
		for _, s := range segs {
			info, err := os.Stat(s)
			if err != nil {
				t.Fatal(err)
			}
			size += info.Size()
		}
		if got, want := m.Counter("blackbox.bytes.written"), uint64(size)-uint64(len(Magic)*len(segs)); got != want {
			t.Errorf("after %s: bytes.written = %d, want %d (%d segment bytes, %d segments)", when, got, want, size, len(segs))
		}
		run, err := ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.Counter("blackbox.records.written"), uint64(len(run.Events)+len(run.Alarms)+run.Segments); got != want {
			t.Errorf("after %s: records.written = %d, want %d read back", when, got, want)
		}
	}

	e := nginxEvent()
	for i := 0; i < 10; i++ {
		w.SinkEvent(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	check("a Flush")

	for rotated := m.Counter("blackbox.segments.rotated"); m.Counter("blackbox.segments.rotated") == rotated; {
		w.SinkEvent(e)
	}
	check("a rotation")

	w.SinkEvent(e)
	w.SinkAlarm(obs.AlarmInfo{Reason: "follower variant fault", Function: "handler"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	check("Close")
}

// BenchmarkSinkEvent times one nginx-shaped event through the WAL sink.
func BenchmarkSinkEvent(b *testing.B) {
	w, err := Open(b.TempDir(), testMeta(), Options{MaxSegments: 2, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	e := nginxEvent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Seq++
		w.SinkEvent(e)
	}
}

// BenchmarkRecordSinkParallel records through the WAL sink from every
// benchmark goroutine, each also observing a registry histogram the way
// an instrumented libc call does: the WAL append must not queue behind
// the registry lock.
func BenchmarkRecordSinkParallel(b *testing.B) {
	rec := obs.NewRecorder(obs.Config{Clock: clock.NewCounter()})
	w, err := Open(b.TempDir(), Meta{Capacity: obs.DefaultCapacity}, Options{Metrics: rec.Metrics(), MaxSegments: 2, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec.SetSink(w)
	m := rec.Metrics()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec.RecordIn("ngx_http_process_request_line", obs.EvLibcExit, obs.VariantLeader, 1, "recv", 3, 0x7fff_0000, 312)
			m.Observe("libc.cycles.recv", 120)
		}
	})
}
