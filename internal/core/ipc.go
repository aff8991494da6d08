package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"smvx/internal/sim/kernel"
)

// The lockstep IPC ring carries one framed record per follower libc call:
//
//	uvarint  name length
//	bytes    name
//	uvarint  argument count
//	uvarint  each argument value
//
// Framing mirrors the shared-memory ring the paper's monitor halves share
// (Section 3.2): the leader decodes what crossed the ring rather than
// trusting in-process pointers, so a corrupted record surfaces as a
// divergence instead of undefined behaviour.

// Decode limits: generous bounds no real libc call approaches, so a
// corrupt length prefix cannot drive a huge allocation.
const (
	maxCallNameLen = 256
	maxCallArgs    = 64
)

// appendCallRecord appends the framed record of one follower call to dst
// and returns the extended slice; callers pass a buffer they reuse.
func appendCallRecord(dst []byte, name string, args []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	dst = binary.AppendUvarint(dst, uint64(len(args)))
	for _, a := range args {
		dst = binary.AppendUvarint(dst, a)
	}
	return dst
}

// errCorruptCallRecord is wrapped by every decodeCallRecord failure.
var errCorruptCallRecord = errors.New("corrupt call record")

// readUvarint decodes one canonical uvarint. It returns w <= 0 for a
// truncated or overlong value and additionally rejects non-minimal
// encodings (a trailing 0x00 continuation byte), so every record has
// exactly one wire form and byte comparison equals semantic comparison.
func readUvarint(wire []byte) (uint64, int) {
	v, w := binary.Uvarint(wire)
	if w > 1 && wire[w-1] == 0 {
		return 0, -w
	}
	return v, w
}

// decodeCallRecord parses a framed call record, appending its arguments to
// args (a reused buffer, passed with length 0). When the record's name
// equals want, the call the decoding side expects, the returned name is
// want itself, so a matching record allocates nothing; any other name is
// copied out of wire. It never panics on arbitrary input (fuzzed) and
// rejects trailing garbage.
func decodeCallRecord(wire []byte, want string, args []uint64) (string, []uint64, error) {
	n, w := readUvarint(wire)
	if w <= 0 {
		return "", nil, fmt.Errorf("%w: bad name length", errCorruptCallRecord)
	}
	wire = wire[w:]
	if n > maxCallNameLen {
		return "", nil, fmt.Errorf("%w: name length %d exceeds %d", errCorruptCallRecord, n, maxCallNameLen)
	}
	if uint64(len(wire)) < n {
		return "", nil, fmt.Errorf("%w: name truncated", errCorruptCallRecord)
	}
	name := want
	if string(wire[:n]) != want {
		name = string(wire[:n])
	}
	wire = wire[n:]
	count, w := readUvarint(wire)
	if w <= 0 {
		return "", nil, fmt.Errorf("%w: bad argument count", errCorruptCallRecord)
	}
	wire = wire[w:]
	if count > maxCallArgs {
		return "", nil, fmt.Errorf("%w: argument count %d exceeds %d", errCorruptCallRecord, count, maxCallArgs)
	}
	for i := uint64(0); i < count; i++ {
		v, w := readUvarint(wire)
		if w <= 0 {
			return "", nil, fmt.Errorf("%w: argument %d truncated", errCorruptCallRecord, i)
		}
		wire = wire[w:]
		args = append(args, v)
	}
	if len(wire) != 0 {
		return "", nil, fmt.Errorf("%w: %d trailing bytes", errCorruptCallRecord, len(wire))
	}
	return name, args, nil
}

// Pipelined lockstep pushes results the other way: the leader frames its
// return value, errno, and output-buffer snapshots into a result record
// that rides the rendezvous ring, and the follower decodes what crossed
// the ring before applying it — the same decode-before-trust discipline
// as the call record above.
//
//	uvarint  return value
//	uvarint  errno
//	uvarint  buffer count
//	per buffer:
//	  uvarint  argument index
//	  uvarint  byte length
//	  bytes    snapshot
const (
	maxResultBufs    = 8
	maxResultBufLen  = 1 << 20
	errnoResultLimit = 1 << 16
)

// errCorruptResultRecord is wrapped by every decodeResultRecord failure.
var errCorruptResultRecord = errors.New("corrupt result record")

// appendResultRecord appends the framed result of a pipelined call to dst
// and returns the extended slice; callers pass a buffer they reuse.
func appendResultRecord(dst []byte, ret uint64, errno kernel.Errno, bufs []emuBuf) []byte {
	dst = binary.AppendUvarint(dst, ret)
	dst = binary.AppendUvarint(dst, uint64(errno))
	dst = binary.AppendUvarint(dst, uint64(len(bufs)))
	for _, b := range bufs {
		dst = binary.AppendUvarint(dst, uint64(b.argIdx))
		dst = binary.AppendUvarint(dst, uint64(len(b.data)))
		dst = append(dst, b.data...)
	}
	return dst
}

// decodeResultRecord parses a framed result record, appending its buffers
// to bufs (a reused buffer, passed with length 0). Each buffer's data is a
// view into wire, not a copy: it is valid only while wire is. Like
// decodeCallRecord it never panics on arbitrary input and rejects trailing
// garbage.
func decodeResultRecord(wire []byte, bufs []emuBuf) (ret uint64, errno kernel.Errno, _ []emuBuf, err error) {
	ret, w := readUvarint(wire)
	if w <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: bad return value", errCorruptResultRecord)
	}
	wire = wire[w:]
	e, w := readUvarint(wire)
	if w <= 0 || e > errnoResultLimit {
		return 0, 0, nil, fmt.Errorf("%w: bad errno", errCorruptResultRecord)
	}
	wire = wire[w:]
	count, w := readUvarint(wire)
	if w <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: bad buffer count", errCorruptResultRecord)
	}
	wire = wire[w:]
	if count > maxResultBufs {
		return 0, 0, nil, fmt.Errorf("%w: buffer count %d exceeds %d", errCorruptResultRecord, count, maxResultBufs)
	}
	for i := uint64(0); i < count; i++ {
		idx, w := readUvarint(wire)
		if w <= 0 || idx > maxCallArgs {
			return 0, 0, nil, fmt.Errorf("%w: buffer %d index", errCorruptResultRecord, i)
		}
		wire = wire[w:]
		n, w := readUvarint(wire)
		if w <= 0 {
			return 0, 0, nil, fmt.Errorf("%w: buffer %d length", errCorruptResultRecord, i)
		}
		wire = wire[w:]
		if n > maxResultBufLen {
			return 0, 0, nil, fmt.Errorf("%w: buffer %d length %d exceeds %d", errCorruptResultRecord, i, n, maxResultBufLen)
		}
		if uint64(len(wire)) < n {
			return 0, 0, nil, fmt.Errorf("%w: buffer %d truncated", errCorruptResultRecord, i)
		}
		bufs = append(bufs, emuBuf{argIdx: int(idx), data: wire[:n:n]})
		wire = wire[n:]
	}
	if len(wire) != 0 {
		return 0, 0, nil, fmt.Errorf("%w: %d trailing bytes", errCorruptResultRecord, len(wire))
	}
	return ret, kernel.Errno(e), bufs, nil
}
