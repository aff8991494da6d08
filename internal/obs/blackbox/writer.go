package blackbox

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"smvx/internal/obs"
)

// DefaultSegmentBytes is the rotation threshold: once a segment's framed
// records exceed it, the writer seals the segment and starts the next.
const DefaultSegmentBytes = 4 << 20

// DefaultMaxSegments is the retention cap: when rotation would leave more
// sealed segments than this, the oldest are deleted. The live ring only
// ever needs the newest Capacity events, so retention never endangers the
// round-trip guarantee; it bounds disk use on long runs.
const DefaultMaxSegments = 16

// frameHeadroom is the scratch space reserved ahead of every encoded
// payload: room for the longest uvarint length prefix, so a frame is
// completed in place around its payload.
const frameHeadroom = binary.MaxVarintLen64

// Options tunes a Writer.
type Options struct {
	// SegmentBytes is the per-segment rotation threshold
	// (default DefaultSegmentBytes).
	SegmentBytes int64
	// MaxSegments caps retained segments (default DefaultMaxSegments;
	// negative = unlimited).
	MaxSegments int
	// Metrics receives the blackbox.* family. Rotations, drops and flush
	// latency reach it as they happen. The byte and record counts
	// (blackbox.bytes.written, blackbox.records.written) are kept in the
	// Writer and added at every Flush, rotation, Close and Snapshot, or
	// when Publish is called. May be nil.
	Metrics *obs.Metrics
	// Sync controls whether Flush also fsyncs the segment file (default
	// true; tests disable it for speed).
	NoSync bool
}

// Writer is the durable event sink: it implements obs.Sink, appending
// every event and alarm to the WAL directory. All methods are safe for
// concurrent use. Write failures never propagate into the recording hot
// path: the first one is kept (Err, Close) and stops the Writer, and
// every record it refuses from then on counts as one blackbox.sink.drops.
type Writer struct {
	mu   sync.Mutex
	dir  string
	meta Meta
	opts Options

	f        *os.File      // the segment being written; nil once sealed
	bw       *bufio.Writer // reused across segments
	segBytes int64
	segIndex int
	sealed   []string // sealed segment paths, oldest first
	buf      []byte   // frame scratch: frameHeadroom bytes, then the payload
	// bytes and records count the frames written since the last publish.
	bytes, records uint64
	err            error // the first write error; nothing is written after it
	closed         bool
}

// Open creates (or appends to) the WAL directory dir and starts a fresh
// segment stamped with meta. One run per directory is the intended use;
// opening an existing directory continues the segment numbering after the
// highest present so earlier runs are never overwritten.
func Open(dir string, meta Meta, opts Options) (*Writer, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.MaxSegments == 0 {
		opts.MaxSegments = DefaultMaxSegments
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blackbox: %w", err)
	}
	existing, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		dir: dir, meta: meta, opts: opts, segIndex: len(existing),
		bw: bufio.NewWriterSize(nil, 64<<10), buf: make([]byte, frameHeadroom),
	}
	for _, s := range existing {
		w.sealed = append(w.sealed, s)
		if idx, ok := segmentIndex(s); ok && idx >= w.segIndex {
			w.segIndex = idx + 1
		}
	}
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	return w, nil
}

// Dir returns the WAL directory.
func (w *Writer) Dir() string { return w.dir }

// CurrentSegment returns the filename of the segment currently being
// written — the incident bundle's WAL reference. Nil-safe.
func (w *Writer) CurrentSegment() string {
	if w == nil {
		return ""
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return segmentName(w.segIndex)
}

// segmentName renders the canonical segment filename for an index.
func segmentName(idx int) string { return fmt.Sprintf("smvx-%08d.wal", idx) }

// segmentIndex parses a segment filename back to its index.
func segmentIndex(path string) (int, bool) {
	var idx int
	if _, err := fmt.Sscanf(filepath.Base(path), "smvx-%d.wal", &idx); err != nil {
		return 0, false
	}
	return idx, true
}

// segmentFiles lists a directory's segment files sorted by name (and so,
// zero-padded, by index).
func segmentFiles(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "smvx-*.wal"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// openSegment starts the next segment: magic header plus a meta record, so
// every segment is independently decodable after retention drops earlier
// ones. The header goes to the file at once, so a segment on disk is
// self-describing from the moment it exists.
func (w *Writer) openSegment() error {
	path := filepath.Join(w.dir, segmentName(w.segIndex))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("blackbox: %w", err)
	}
	w.f = f
	w.bw.Reset(f)
	w.segBytes = 0
	if _, err := w.bw.WriteString(Magic); err != nil {
		return err
	}
	w.segBytes += int64(len(Magic))
	w.buf = appendMeta(w.buf[:frameHeadroom], w.meta)
	if err := w.writeFrame(); err != nil {
		return err
	}
	return w.bw.Flush()
}

// writeFrame frames the payload encoded in w.buf after frameHeadroom — its
// uvarint length just before it, its CRC32C just after — and hands the
// whole frame to the segment buffer in one Write.
func (w *Writer) writeFrame() error {
	payload := w.buf[frameHeadroom:]
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	start := frameHeadroom - n
	copy(w.buf[start:], hdr[:n])
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(payload, crcTable))
	frame := w.buf[start:]
	if _, err := w.bw.Write(frame); err != nil {
		return err
	}
	w.segBytes += int64(len(frame))
	w.bytes += uint64(len(frame))
	w.records++
	return nil
}

// accepting reports whether a record may be written, counting it as a drop
// when not: after Close or the first write error, no record reaches a
// closed or failed segment.
func (w *Writer) accepting() bool {
	if w.closed || w.err != nil {
		w.opts.Metrics.Inc("blackbox.sink.drops")
		return false
	}
	return true
}

// commit writes the record encoded in w.buf, rotating afterwards if the
// segment crossed the threshold. Failures are kept and swallowed: the
// flight recorder must keep flying with a dead disk.
func (w *Writer) commit() {
	if err := w.writeFrame(); err != nil {
		w.fail(err)
		w.opts.Metrics.Inc("blackbox.sink.drops")
		return
	}
	if w.segBytes >= w.opts.SegmentBytes {
		w.fail(w.rotate())
		w.publish()
	}
}

// fail keeps err if it is the first write error. Once one is kept, the
// Writer writes nothing more.
func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// publish adds the frames written since the last publish to the registry.
func (w *Writer) publish() {
	if w.records == 0 {
		return
	}
	w.opts.Metrics.Add("blackbox.bytes.written", w.bytes)
	w.opts.Metrics.Add("blackbox.records.written", w.records)
	w.bytes, w.records = 0, 0
}

// rotate seals the current segment, starts the next, and enforces the
// retention cap.
func (w *Writer) rotate() error {
	if err := w.seal(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, filepath.Join(w.dir, segmentName(w.segIndex)))
	w.segIndex++
	w.opts.Metrics.Inc("blackbox.segments.rotated")
	if max := w.opts.MaxSegments; max > 0 {
		for len(w.sealed) > max {
			if err := os.Remove(w.sealed[0]); err != nil && !os.IsNotExist(err) {
				return err
			}
			w.sealed = w.sealed[1:]
			w.opts.Metrics.Inc("blackbox.segments.dropped")
		}
	}
	return w.openSegment()
}

// seal flushes, syncs and closes the current segment file. The file is
// closed even when the flush or sync fails.
func (w *Writer) seal() error {
	f := w.f
	w.f = nil
	err := w.bw.Flush()
	if err == nil && !w.opts.NoSync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SinkEvent implements obs.Sink.
func (w *Writer) SinkEvent(e obs.Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.accepting() {
		w.buf = appendEvent(w.buf[:frameHeadroom], e)
		w.commit()
	}
}

// SinkAlarm implements obs.Sink.
func (w *Writer) SinkAlarm(a obs.AlarmInfo) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.accepting() {
		w.buf = appendAlarm(w.buf[:frameHeadroom], a)
		w.commit()
	}
}

// Flush implements obs.Sink: it pushes buffered frames to the OS and (by
// default) fsyncs, recording the latency in blackbox.flush.nanos. The
// recorder calls it on every alarm; the CLI calls it via Close at exit.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *Writer) flushLocked() error {
	w.publish()
	if w.closed || w.err != nil {
		return w.err
	}
	start := time.Now()
	if err := w.bw.Flush(); err != nil {
		w.fail(err)
		return err
	}
	if !w.opts.NoSync {
		if err := w.f.Sync(); err != nil {
			w.fail(err)
			return err
		}
	}
	w.opts.Metrics.Observe("blackbox.flush.nanos", uint64(time.Since(start)))
	return nil
}

// Publish adds the byte and record counts not yet in Options.Metrics to
// it. Flush, rotation, Close and Snapshot publish on their own; code that
// reads the registry while the WAL is open calls Publish first. Nil-safe.
func (w *Writer) Publish() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.publish()
	w.mu.Unlock()
}

// Close flushes and seals the WAL and returns the first write error. The
// Writer drops (and counts) any records sunk after Close.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed {
		w.closed = true
		if w.f != nil {
			w.fail(w.seal())
		}
		w.publish()
	}
	return w.err
}

// Err returns the first write error the Writer swallowed (nil if none) —
// for CLIs that want to warn the operator the black box is incomplete.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// SegmentInfo describes one on-disk segment for the /blackbox endpoint.
type SegmentInfo struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

// Stats is the /blackbox telemetry snapshot.
type Stats struct {
	Dir          string        `json:"dir"`
	Segments     []SegmentInfo `json:"segments"`
	TotalBytes   int64         `json:"total_bytes"`
	CurrentBytes int64         `json:"current_segment_bytes"`
	Closed       bool          `json:"closed"`
	LastError    string        `json:"last_error,omitempty"`
}

// Snapshot flushes buffered frames, publishes the byte and record counts,
// and reports the live WAL directory state: one entry per segment file with
// its on-disk size.
func (w *Writer) Snapshot() Stats {
	w.mu.Lock()
	w.flushLocked() //nolint:errcheck // kept in w.err
	st := Stats{Dir: w.dir, CurrentBytes: w.segBytes, Closed: w.closed}
	if w.err != nil {
		st.LastError = w.err.Error()
	}
	w.mu.Unlock()

	segs, err := segmentFiles(w.dir)
	if err != nil {
		return st
	}
	for _, s := range segs {
		info, err := os.Stat(s)
		if err != nil {
			continue
		}
		st.Segments = append(st.Segments, SegmentInfo{Name: filepath.Base(s), Bytes: info.Size()})
		st.TotalBytes += info.Size()
	}
	return st
}
