package core

import (
	"bytes"
	"errors"
	"testing"

	"smvx/internal/libc"
	"smvx/internal/sim/kernel"
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
	var wire []byte
	var buf []uint64
	for _, c := range cases {
		wire = appendCallRecord(wire[:0], c.name, c.args)
		name, args, err := decodeCallRecord(wire, c.name, buf[:0])
		if err != nil {
			t.Errorf("%s: decode: %v", c.name, err)
			continue
		}
		buf = args
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

// TestDecodeCallRecordName: a record naming the expected call returns that
// very string; any other name is still decoded, as a copy, so the compare
// after the decode sees the mismatch.
func TestDecodeCallRecordName(t *testing.T) {
	wire := appendCallRecord(nil, "open", []uint64{1})
	name, _, err := decodeCallRecord(wire, "write", nil)
	if err != nil || name != "open" {
		t.Fatalf("decode against another call = (%q, %v), want open", name, err)
	}
	if v := compareCalls(libc.Lookup("write"), "write", []uint64{1}, name, []uint64{1}); v.reason != AlarmCallMismatch {
		t.Errorf("compare after a mismatched decode = %v, want a call mismatch", v.reason)
	}
	wire[1] = 'O' // the copy must not alias the wire
	if name != "open" {
		t.Errorf("decoded name aliases the wire: %q", name)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkName, sinkArgs, _ = decodeCallRecord(wire, "Open", sinkArgs[:0])
	}); n != 0 {
		t.Errorf("decoding the expected call allocates %.1f per record", n)
	}
}

func TestDecodeCallRecordRejectsCorruption(t *testing.T) {
	good := appendCallRecord(nil, "write", []uint64{3, 0x400500, 17})
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
		if _, _, err := decodeCallRecord(c.wire, "write", nil); !errors.Is(err, errCorruptCallRecord) {
			t.Errorf("%s: err = %v, want errCorruptCallRecord", c.label, err)
		}
	}
	// A truncated-argument record (the IPCTruncate fault) decodes fine; the
	// divergence is caught by the argument-count comparison, not the codec.
	short := appendCallRecord(nil, "write", []uint64{3, 0x400500})
	if _, args, err := decodeCallRecord(short, "write", nil); err != nil || len(args) != 2 {
		t.Errorf("truncated-args record: %d args, %v", len(args), err)
	}
}

// FuzzDecodeCallRecord: arbitrary bytes must never panic the decoder, and
// whatever decodes must re-encode to the exact same wire form (the codec
// has one canonical encoding).
func FuzzDecodeCallRecord(f *testing.F) {
	f.Add(appendCallRecord(nil, "write", []uint64{3, 0x400500, 17}))
	f.Add(appendCallRecord(nil, "gettimeofday", []uint64{0, 0}))
	f.Add(appendCallRecord(nil, "", nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x01, 'x', 0x01, 0xff})
	f.Fuzz(func(t *testing.T, wire []byte) {
		name, args, err := decodeCallRecord(wire, "write", nil)
		if err != nil {
			return
		}
		if len(name) > maxCallNameLen || len(args) > maxCallArgs {
			t.Fatalf("decoder exceeded its own limits: name %d, args %d", len(name), len(args))
		}
		if re := appendCallRecord(nil, name, args); !bytes.Equal(re, wire) {
			t.Fatalf("non-canonical decode: %x -> (%q, %v) -> %x", wire, name, args, re)
		}
	})
}

// FuzzDecodeResultRecord: the pipelined result decoder parses bytes that
// crossed the ring. It must never panic or exceed its own limits, and
// whatever decodes must re-encode to the exact same wire form.
func FuzzDecodeResultRecord(f *testing.F) {
	f.Add(appendResultRecord(nil, 0x1f, kernel.Errno(11), []emuBuf{
		{argIdx: 0, data: []byte{1, 2, 3, 4}},
		{argIdx: 2, data: []byte("timeval bytes....")},
	}))
	f.Add(appendResultRecord(nil, 0, 0, nil))
	f.Add(appendResultRecord(nil, ^uint64(0), errnoResultLimit, []emuBuf{{argIdx: maxCallArgs}}))
	f.Add([]byte{0x00, 0x00, 0x01, 0x01, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x00, 0x80, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, wire []byte) {
		ret, errno, bufs, err := decodeResultRecord(wire, nil)
		if err != nil {
			return
		}
		if errno > errnoResultLimit || len(bufs) > maxResultBufs {
			t.Fatalf("decoder exceeded its own limits: errno %d, %d buffers", errno, len(bufs))
		}
		for _, b := range bufs {
			if b.argIdx < 0 || b.argIdx > maxCallArgs || len(b.data) > maxResultBufLen {
				t.Fatalf("decoder exceeded its own limits: buffer %d of %d bytes", b.argIdx, len(b.data))
			}
		}
		if re := appendResultRecord(nil, ret, errno, bufs); !bytes.Equal(re, wire) {
			t.Fatalf("non-canonical decode: %x -> %x", wire, re)
		}
	})
}

// Sinks keep the compiler from discarding the benchmarked decode.
var (
	sinkName string
	sinkArgs []uint64
)

// BenchmarkCallRecordCodec encodes and decodes one three-argument record in
// reused buffers, the IPC layer's work for each call a follower replays.
func BenchmarkCallRecordCodec(b *testing.B) {
	args := []uint64{3, 0x7ffd_0000_1000, 4096}
	var wire []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire = appendCallRecord(wire[:0], "read", args)
		name, got, err := decodeCallRecord(wire, "read", sinkArgs[:0])
		if err != nil {
			b.Fatal(err)
		}
		sinkName, sinkArgs = name, got
	}
}
