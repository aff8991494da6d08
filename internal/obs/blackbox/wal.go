// Package blackbox is the sMVX flight recorder's durable half: a binary,
// append-only trace WAL that spills every obs.Event and obs.AlarmInfo to
// disk *before* the in-memory ring can evict it.
//
// The live recorder (internal/obs) is a volatile ring: perfect for
// zero-cost steady-state tracing, useless the moment the process exits or
// the ring wraps past the events an analyst needed. dMVX demonstrated that
// serializing the full cross-variant event stream is cheap enough for
// production MVX; the SGX provenance-analysis line of work demonstrated
// that post-hoc forensic reconstruction wants an append-only audit log.
// This package is both: a Writer that implements obs.Sink and an offline
// reader that internal/obs/replay builds timelines from.
//
// # On-disk format
//
// A WAL is a directory of segment files named smvx-%08d.wal. Each segment
// starts with an 8-byte magic ("sMVXWAL1") followed by framed records:
//
//	uvarint payload-length | payload | crc32c(payload) (4 bytes LE)
//
// The payload's first byte is the record type (meta, event, alarm); the
// rest is uvarint/length-prefixed-string encoded fields. Every segment
// leads with a meta record carrying the recorder's ring sizing, so any
// suffix of segments that survives retention is self-describing. The CRC
// frame makes damage detectable: a reader stops a segment cleanly at the
// first truncated or corrupted frame and keeps everything before it.
//
// The meta record opens with the format version. Version 4 (FormatVersion)
// records each libc call of each variant as one obs.EvLibcCall event, its
// trampoline pass included, whose record carries the event's flags byte
// and four more uvarints after the common fields: its duration, PKRU pair,
// unsafe SP and safe-stack top. Version 3 recorded each call as an
// obs.EvTrampoline event at the pass's entry and an
// obs.EvLibcEnter/obs.EvLibcExit pair; versions 1 and 2 recorded two
// obs.EvPKRUWrite events and one obs.EvStackPivot per pass instead of the
// obs.EvTrampoline. Versions 3 and 4 record each telemetry span as one
// obs.EvSpan at its end, versions 1 and 2 as an
// obs.EvSpanBegin/obs.EvSpanEnd pair. Versions 2 to 4 carry the cost
// ledger as obs.EvLedgerCell events, one per cell that moved, flushed at
// each region's mvx_end and at the end of the run; version 1 carried one
// obs.EvLedger event per charge. The framing and every other record
// encoding are the same in all four, the retired kinds keep their numbers
// and their renderers, and the reader accepts all four, so older WALs
// still replay to their forensics, traces and ledger. Only a sealed WAL of
// version 2 or later (cli.Runtime.Seal) carries the whole ledger: a WAL
// cut off by a host crash lacks the cells of every region still in
// flight, and its replayed ledger is smaller with no damage note to say
// so.
//
// Writes are buffered; the Writer flushes (and fsyncs) on every alarm and
// on Close, so the records leading up to a divergence are on disk even if
// the host process dies immediately after raising it — all but the
// in-flight region's ledger cells, which reach the recorder only at that
// region's mvx_end or at the seal.
package blackbox

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"smvx/internal/obs"
	"smvx/internal/sim/clock"
)

// Magic begins every segment file.
const Magic = "sMVXWAL1"

// FormatVersion is the version the writer stamps into each meta record.
// It is bumped when the record encoding, or what the records mean to
// replay, changes incompatibly, so that an older reader refuses a newer
// WAL: a version-1 reader would replay a version-2 WAL to an empty ledger,
// a version-2 reader would render a version-3 WAL's trampoline and span
// events as unknown kinds, and a version-3 reader would neither decode a
// version-4 libc call's extra fields nor pair it into calls.
const FormatVersion = 4

// minFormatVersion is the oldest version the reader still decodes.
const minFormatVersion = 1

// Record types (first payload byte).
const (
	recMeta  byte = 1
	recEvent byte = 2
	recAlarm byte = 3
)

// crcTable is the Castagnoli polynomial table (CRC32C, the checksum used
// by most storage-path WALs for its hardware support).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Meta describes the run that produced a WAL: the live recorder's ring
// sizing (needed to rebuild the exact ring view offline) plus free-form
// labels (app, mode, seed, ...) the CLI stamps for later identification.
type Meta struct {
	// Capacity is the live ring's event capacity.
	Capacity int
	// ForensicWindow is the per-variant tail length of forensics reports.
	ForensicWindow int
	// Labels identify the run (deterministic: encoded sorted by key).
	Labels map[string]string
}

// appendString appends a uvarint length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Variant bytes. The WAL predates N-variant sets: a pair-era segment
// stores the leader as 0, its one follower as 1 and no variant as 2, and
// later follower slots k extend past that as k+1. walNone is that none
// byte; walMaxVariant is the last byte a follower slot encodes to.
const (
	walNone       byte = 2
	walMaxVariant byte = obs.MaxFollowers + 1
)

// variantByte encodes a variant as its WAL byte.
func variantByte(v obs.Variant) byte {
	switch {
	case v <= obs.VariantFollower:
		return byte(v)
	case v < obs.VariantNone:
		return byte(v) + 1
	default:
		return walNone
	}
}

// variantOf decodes a WAL variant byte. A byte past the last follower slot
// decodes to none, as the recorder stores an out-of-range variant.
func variantOf(b byte) obs.Variant {
	switch {
	case b < walNone:
		return obs.Variant(b)
	case b > walNone && b <= walMaxVariant:
		return obs.Variant(b - 1)
	default:
		return obs.VariantNone
	}
}

// appendEvent encodes one event payload (type byte included).
func appendEvent(b []byte, e obs.Event) []byte {
	b = append(b, recEvent, byte(e.Kind), variantByte(e.Variant))
	b = binary.AppendUvarint(b, e.Seq)
	b = binary.AppendUvarint(b, e.VSeq)
	b = binary.AppendUvarint(b, uint64(e.TS))
	b = binary.AppendUvarint(b, uint64(e.TID))
	b = binary.AppendUvarint(b, e.Arg0)
	b = binary.AppendUvarint(b, e.Arg1)
	b = binary.AppendUvarint(b, e.Ret)
	b = appendString(b, e.Fn)
	b = appendString(b, e.Name)
	if e.Kind == obs.EvLibcCall {
		b = append(b, byte(e.Flags))
		b = binary.AppendUvarint(b, uint64(e.Dur))
		b = binary.AppendUvarint(b, e.PKRU)
		b = binary.AppendUvarint(b, e.SP)
		b = binary.AppendUvarint(b, e.SafeSP)
	}
	return b
}

// appendAlarm encodes one alarm payload (type byte included).
func appendAlarm(b []byte, a obs.AlarmInfo) []byte {
	b = append(b, recAlarm)
	b = appendString(b, a.Reason)
	b = binary.AppendUvarint(b, a.CallIndex)
	b = appendString(b, a.Function)
	b = appendString(b, a.LeaderCall)
	b = appendString(b, a.FollowerCall)
	b = appendString(b, a.Detail)
	b = binary.AppendUvarint(b, uint64(len(a.Snapshots)))
	for _, s := range a.Snapshots {
		b = appendString(b, s.Role)
		b = binary.AppendUvarint(b, uint64(s.TID))
		b = binary.AppendUvarint(b, s.IP)
		b = binary.AppendUvarint(b, s.SP)
		b = binary.AppendUvarint(b, uint64(len(s.Regs)))
		for _, v := range s.Regs {
			b = binary.AppendUvarint(b, v)
		}
		b = binary.AppendUvarint(b, uint64(len(s.Stack)))
		for _, v := range s.Stack {
			b = binary.AppendUvarint(b, v)
		}
		b = binary.AppendUvarint(b, uint64(len(s.CallStack)))
		for _, fn := range s.CallStack {
			b = appendString(b, fn)
		}
	}
	return b
}

// appendMeta encodes the meta payload (type byte included).
func appendMeta(b []byte, m Meta) []byte {
	b = append(b, recMeta)
	b = binary.AppendUvarint(b, FormatVersion)
	b = binary.AppendUvarint(b, uint64(m.Capacity))
	b = binary.AppendUvarint(b, uint64(m.ForensicWindow))
	keys := sortedKeys(m.Labels)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		b = appendString(b, m.Labels[k])
	}
	return b
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// decoder walks one payload buffer; any overrun marks it bad.
type decoder struct {
	buf []byte
	pos int
	bad bool
}

func (d *decoder) uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) byte() byte {
	if d.bad || d.pos >= len(d.buf) {
		d.bad = true
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.bad || uint64(len(d.buf)-d.pos) < n {
		d.bad = true
		return ""
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

// decodeEvent decodes an event payload (after the type byte).
func decodeEvent(payload []byte) (obs.Event, error) {
	d := &decoder{buf: payload}
	e := obs.Event{
		Kind:    obs.EventKind(d.byte()),
		Variant: variantOf(d.byte()),
	}
	e.Seq = d.uvarint()
	e.VSeq = d.uvarint()
	e.TS = clock.Cycles(d.uvarint())
	e.TID = int(d.uvarint())
	e.Arg0 = d.uvarint()
	e.Arg1 = d.uvarint()
	e.Ret = d.uvarint()
	e.Fn = d.string()
	e.Name = d.string()
	if e.Kind == obs.EvLibcCall {
		e.Flags = obs.EventFlags(d.byte())
		e.Dur = clock.Cycles(d.uvarint())
		e.PKRU = d.uvarint()
		e.SP = d.uvarint()
		e.SafeSP = d.uvarint()
	}
	if d.bad {
		return obs.Event{}, fmt.Errorf("blackbox: short event payload")
	}
	return e, nil
}

// decodeAlarm decodes an alarm payload (after the type byte).
func decodeAlarm(payload []byte) (obs.AlarmInfo, error) {
	d := &decoder{buf: payload}
	a := obs.AlarmInfo{Reason: d.string()}
	a.CallIndex = d.uvarint()
	a.Function = d.string()
	a.LeaderCall = d.string()
	a.FollowerCall = d.string()
	a.Detail = d.string()
	nsnap := d.uvarint()
	const maxSnapshots = 1 << 10 // damaged-length guard
	if nsnap > maxSnapshots {
		return obs.AlarmInfo{}, fmt.Errorf("blackbox: implausible snapshot count %d", nsnap)
	}
	for i := uint64(0); i < nsnap && !d.bad; i++ {
		s := obs.ThreadSnapshot{Role: d.string()}
		s.TID = int(d.uvarint())
		s.IP = d.uvarint()
		s.SP = d.uvarint()
		s.Regs = decodeUints(d)
		s.Stack = decodeUints(d)
		ncs := d.uvarint()
		for j := uint64(0); j < ncs && !d.bad; j++ {
			s.CallStack = append(s.CallStack, d.string())
		}
		a.Snapshots = append(a.Snapshots, s)
	}
	if d.bad {
		return obs.AlarmInfo{}, fmt.Errorf("blackbox: short alarm payload")
	}
	return a, nil
}

func decodeUints(d *decoder) []uint64 {
	n := d.uvarint()
	const maxWords = 1 << 16 // damaged-length guard
	if d.bad || n > maxWords {
		d.bad = true
		return nil
	}
	out := make([]uint64, 0, n)
	for i := uint64(0); i < n && !d.bad; i++ {
		out = append(out, d.uvarint())
	}
	return out
}

// decodeMeta decodes the meta payload (after the type byte).
func decodeMeta(payload []byte) (Meta, error) {
	d := &decoder{buf: payload}
	ver := d.uvarint()
	if !d.bad && (ver < minFormatVersion || ver > FormatVersion) {
		return Meta{}, fmt.Errorf("blackbox: unsupported WAL format version %d", ver)
	}
	m := Meta{Capacity: int(d.uvarint()), ForensicWindow: int(d.uvarint())}
	nlabels := d.uvarint()
	const maxLabels = 1 << 10
	if nlabels > maxLabels {
		return Meta{}, fmt.Errorf("blackbox: implausible label count %d", nlabels)
	}
	if nlabels > 0 {
		m.Labels = make(map[string]string, nlabels)
	}
	for i := uint64(0); i < nlabels && !d.bad; i++ {
		k := d.string()
		m.Labels[k] = d.string()
	}
	if d.bad {
		return Meta{}, fmt.Errorf("blackbox: short meta payload")
	}
	return m, nil
}
