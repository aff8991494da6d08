package core

import (
	"bytes"
	"errors"
	"testing"
)

func TestCallRecordRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		args []uint64
	}{
		{"write", []uint64{3, 0x400500, 17}},
		{"close", []uint64{0}},
		{"gettimeofday", []uint64{0xffff_ffff_ffff_ffff, 0}},
		{"malloc", nil},
		{"x", make([]uint64, maxCallArgs)},
	}
	for _, c := range cases {
		wire := encodeCallRecord(c.name, c.args)
		name, args, err := decodeCallRecord(wire)
		if err != nil {
			t.Errorf("%s: decode: %v", c.name, err)
			continue
		}
		if name != c.name || len(args) != len(c.args) {
			t.Errorf("%s: round trip = (%q, %d args)", c.name, name, len(args))
		}
		for i := range args {
			if args[i] != c.args[i] {
				t.Errorf("%s: arg %d = %#x, want %#x", c.name, i, args[i], c.args[i])
			}
		}
	}
}

func TestDecodeCallRecordRejectsCorruption(t *testing.T) {
	good := encodeCallRecord("write", []uint64{3, 0x400500, 17})
	cases := []struct {
		label string
		wire  []byte
	}{
		{"empty", nil},
		{"truncated frame", good[:len(good)-1]},
		{"trailing garbage", append(append([]byte{}, good...), 0x00)},
		{"huge name length", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		{"name longer than payload", []byte{0x05, 'a', 'b'}},
		{"huge arg count", []byte{0x01, 'x', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00}},
		{"missing args", []byte{0x01, 'x', 0x03, 0x01}},
		{"unterminated varint", []byte{0x01, 'x', 0x01, 0xff}},
	}
	for _, c := range cases {
		if _, _, err := decodeCallRecord(c.wire); !errors.Is(err, errCorruptCallRecord) {
			t.Errorf("%s: err = %v, want errCorruptCallRecord", c.label, err)
		}
	}
	// A truncated-argument record (the IPCTruncate fault) decodes fine; the
	// divergence is caught by the argument-count comparison, not the codec.
	short := encodeCallRecord("write", []uint64{3, 0x400500})
	if _, args, err := decodeCallRecord(short); err != nil || len(args) != 2 {
		t.Errorf("truncated-args record: %d args, %v", len(args), err)
	}
}

// FuzzDecodeCallRecord is the satellite fuzz target: arbitrary bytes must
// never panic the decoder, and whatever decodes must re-encode to the exact
// same wire form (the codec has one canonical encoding).
func FuzzDecodeCallRecord(f *testing.F) {
	f.Add(encodeCallRecord("write", []uint64{3, 0x400500, 17}))
	f.Add(encodeCallRecord("gettimeofday", []uint64{0, 0}))
	f.Add(encodeCallRecord("", nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x01, 'x', 0x01, 0xff})
	f.Fuzz(func(t *testing.T, wire []byte) {
		name, args, err := decodeCallRecord(wire)
		if err != nil {
			return
		}
		if len(name) > maxCallNameLen || len(args) > maxCallArgs {
			t.Fatalf("decoder exceeded its own limits: name %d, args %d", len(name), len(args))
		}
		if re := encodeCallRecord(name, args); !bytes.Equal(re, wire) {
			t.Fatalf("non-canonical decode: %x -> (%q, %v) -> %x", wire, name, args, re)
		}
	})
}

// Sinks keep the compiler from discarding the benchmarked decode.
var (
	sinkName string
	sinkArgs []uint64
)

// BenchmarkCallRecordCodec encodes and decodes one three-argument record,
// the IPC layer's work for each call a follower replays.
func BenchmarkCallRecordCodec(b *testing.B) {
	args := []uint64{3, 0x7ffd_0000_1000, 4096}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		name, got, err := decodeCallRecord(encodeCallRecord("read", args))
		if err != nil {
			b.Fatal(err)
		}
		sinkName, sinkArgs = name, got
	}
}
