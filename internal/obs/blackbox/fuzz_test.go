package blackbox

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smvx/internal/obs"
)

// fuzzSeedSegment builds one pristine sealed WAL segment and returns its
// raw bytes: the corpus anchor from which the fuzzer mutates toward every
// framing edge the reader has to survive.
func fuzzSeedSegment(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	w, err := Open(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		w.SinkEvent(obs.Event{
			Seq: uint64(i + 1), Kind: obs.EvLibcEnter, Variant: obs.VariantLeader,
			Name: "write", Fn: "handler", Arg0: uint64(0x5000 + i), Ret: 10,
		})
	}
	// A version-4 libc call, whose record carries the flags byte and four
	// uvarints past the common fields.
	w.SinkEvent(obs.Event{
		Seq: 9, VSeq: 9, TS: 9000, Kind: obs.EvLibcCall, Variant: obs.VariantFollower,
		Flags: obs.FlagIntercepted | obs.FlagUnreturned, TID: 2, Name: "recv", Fn: "handler",
		Arg0: 3, Arg1: 0x5500_0000_1000, Dur: 640, PKRU: 0x5555_5550 | 0x4<<32,
		SP: 0x7ffc_fffc_fde8, SafeSP: 0x5500_f64f_5000,
	})
	w.SinkAlarm(obs.AlarmInfo{
		Reason: "follower variant fault", CallIndex: 7, Function: "handler",
		FollowerCall: "write", Detail: "thread crashed at 0xdead0",
		Snapshots: []obs.ThreadSnapshot{{
			Role: "follower", TID: 2, IP: 0xdead0, SP: 0x7000,
			Regs: []uint64{1, 2, 3}, Stack: []uint64{0xaa, 0xbb},
			CallStack: []string{"main", "handler"},
		}},
	})
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segmentName(0)))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzReadSegment throws arbitrary bytes at the WAL segment decoder. The
// contract under test is the black-box recovery promise: a segment file's
// content — however truncated, bit-flipped, or hostile — must never panic
// the reader and never surface as an error; anything unparseable becomes a
// Damage note on an otherwise-successful partial read.
func FuzzReadSegment(f *testing.F) {
	seed := fuzzSeedSegment(f)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add([]byte("sMVXWAL9 wrong version magic"))
	f.Add(seed[:len(seed)/2])  // truncated mid-frame
	f.Add(seed[:len(seed)-3])  // chopped trailing checksum
	f.Add(seed[:len(Magic)+1]) // lone dangling length byte
	flip := append([]byte(nil), seed...)
	flip[len(flip)/2] ^= 0x40 // payload bit flip -> CRC mismatch
	f.Add(flip)
	badMagic := append([]byte(nil), seed...)
	badMagic[0] ^= 0xff
	f.Add(badMagic)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		run, err := ReadDir(dir)
		if err != nil {
			t.Fatalf("segment content must never error the reader, got: %v", err)
		}
		if run.Segments != 1 || run.Bytes != int64(len(data)) {
			t.Fatalf("accounting: segments=%d bytes=%d, want 1/%d", run.Segments, run.Bytes, len(data))
		}
		// A read with no damage notes means the decoder vouched for every
		// byte — that is only possible behind an intact magic header.
		if len(run.Damage) == 0 && !bytes.HasPrefix(data, []byte(Magic)) {
			t.Fatalf("clean read of a segment without magic (%d bytes)", len(data))
		}
		// The reader is a pure function of the file: a second pass must
		// reconstruct the identical run, damage notes included.
		again, err := ReadDir(dir)
		if err != nil {
			t.Fatalf("second read errored: %v", err)
		}
		if !reflect.DeepEqual(run, again) {
			t.Fatalf("nondeterministic read:\nfirst:  %+v\nsecond: %+v", run, again)
		}
	})
}

// TestFuzzSeedCorpusBehaviors pins what each hand-written fuzz seed is for:
// the pristine segment reads clean, and every damaged variant yields a
// partial read with at least one damage note — so a fuzzer regression in
// either direction (panic or silently swallowed damage) is caught even in
// plain `go test` runs that never enter fuzzing mode.
func TestFuzzSeedCorpusBehaviors(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		w.SinkEvent(obs.Event{Seq: uint64(i + 1), Kind: obs.EvLibcEnter, Name: "write"})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		data       []byte
		wantClean  bool
		wantEvents int
	}{
		{"pristine", seed, true, 8},
		{"truncated-mid-frame", seed[:len(seed)/2], false, -1},
		{"chopped-checksum", seed[:len(seed)-3], false, 7},
		{"empty", nil, false, 0},
		{"magic-only", []byte(Magic), true, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := t.TempDir()
			if err := os.WriteFile(filepath.Join(d, segmentName(0)), c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			run, err := ReadDir(d)
			if err != nil {
				t.Fatalf("ReadDir: %v", err)
			}
			if clean := len(run.Damage) == 0; clean != c.wantClean {
				t.Errorf("damage = %v, want clean=%v", run.Damage, c.wantClean)
			}
			if c.wantEvents >= 0 && len(run.Events) != c.wantEvents {
				t.Errorf("events = %d, want %d", len(run.Events), c.wantEvents)
			}
		})
	}
}
