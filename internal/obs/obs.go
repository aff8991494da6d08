// Package obs is the sMVX flight recorder: an always-on, low-overhead
// observability layer for the monitor, the lockstep engine, the libc layer,
// and the simulated kernel.
//
// The paper's product is a *divergence signal* — sMVX "raises an alarm" at
// libc-call granularity — and an alarm is only actionable if the execution
// that led up to it can be reconstructed after the fact. This package
// provides three pieces:
//
//   - a fixed-capacity ring buffer of typed, virtual-clock-timestamped
//     events (libc call entry/exit per variant, lockstep decisions, one
//     trampoline pass per interception, variant-creation phases, page
//     faults, alarms),
//   - a metrics registry of counters, gauges and cycle histograms,
//   - flight-recorder forensics reports: for every alarm, the final events
//     of each variant plus register/stack snapshots of the involved
//     threads.
//
// Everything hangs off a *Recorder whose methods are nil-safe: a nil
// Recorder is the disabled state, every record call on it is a no-op that
// performs no allocation and charges nothing to the virtual clock, so
// instrumented hot paths (the trampoline, every libc dispatch) cost nothing
// when observability is off. Timestamps are virtual-clock cycle readings —
// recording is free on the simulated timeline even when enabled, which is
// what lets the Figure 6 numbers stay identical with and without tracing.
package obs

import (
	"sync"
	"sync/atomic"

	"smvx/internal/sim/clock"
)

// EventKind types a flight-recorder event.
type EventKind uint8

// Event kinds.
const (
	// EvLibcEnter / EvLibcExit bracket one libc call by one variant.
	EvLibcEnter EventKind = iota + 1
	EvLibcExit
	// EvLockstep is one leader/follower rendezvous decision: Name is the
	// call, Arg0 the emulation category code (Table 1).
	EvLockstep
	// EvEmulated is one leader→follower result copy: Arg0 is bytes copied.
	EvEmulated
	// EvPKRUWrite is one protection-key rights register update: Arg0 is the
	// new PKRU value. No code records it now (the trampoline records one
	// EvTrampoline); it keeps its number so that older WALs still replay.
	EvPKRUWrite
	// EvStackPivot is one trampoline safe-stack switch: Arg0 the old SP,
	// Arg1 the new SP. Retired with EvPKRUWrite, for the same reason.
	EvStackPivot
	// EvVariantPhase is one variant-creation phase from the Table 2
	// breakdown: Name is the phase, Arg0 its cycle cost.
	EvVariantPhase
	// EvRegionStart / EvRegionEnd bracket one protected region: Name is the
	// protected root function.
	EvRegionStart
	EvRegionEnd
	// EvPageFault is a simulated memory fault: Arg0 is the faulting
	// address, Name the fault kind.
	EvPageFault
	// EvSyscall is one kernel entry: Arg0 is the issuing PID.
	EvSyscall
	// EvAlarm is a raised divergence alarm: Name is the reason.
	EvAlarm
	// EvSpanBegin / EvSpanEnd bracketed one typed telemetry span in WAL
	// format versions 1 and 2: Name is "<kind>:<detail>", Arg0 is
	// kind-specific (the emulation category code for rendezvous/emulation
	// spans). On EvSpanEnd, Arg0 is the span duration in cycles and
	// Arg1/Ret carry the kind's payload. No code records them now (a span
	// records one EvSpan); they keep their numbers so that older WALs
	// still replay.
	EvSpanBegin
	EvSpanEnd
	// EvWatchdog is an SLO watchdog trip: Name is the violated threshold.
	// No code records it now; it keeps its number so that older WALs
	// still decode and replay to their incident tables.
	EvWatchdog
	// EvFaultInjected is one fired chaos fault: Name is "<kind>:<libc
	// call>", Arg0 the follower libc-call ordinal it fired at, Arg1 the
	// fault's bit parameter (bit-flip faults only).
	EvFaultInjected
	// EvFollowerDetached marks the divergence policy severing the follower
	// from lockstep: Name is the cause, Arg0 the libc-call count at detach.
	EvFollowerDetached
	// EvFollowerRestarted marks PolicyRestartFollower re-cloning a fresh
	// follower at a region entry: Name is the protected function, Arg0 the
	// restart ordinal (1-based).
	EvFollowerRestarted
	// EvLedger is one rendezvous cost-ledger phase charge, as version-1
	// WALs recorded it, one event per charge: Fn is the protected region,
	// Name the interned "phase/class" pair, Arg0 the cycles, Arg1 the
	// allocation count, Ret the bytes moved. No code records it now (the
	// ledger records EvLedgerCell); it keeps its number so that older WALs
	// still replay to their ledger.
	EvLedger
	// EvRequestStart opens one application request span at accept time:
	// Name is the application, Arg0 the request id, TS the accept-time
	// clock reading.
	EvRequestStart
	// EvRequestEnd closes a request span at connection teardown: Name is
	// the application, Fn is "served" or "aborted", Arg0 the span duration
	// in cycles, Arg1 the MVX synchronization cycles attributed to the
	// span, Ret the request id. Start/end pairs are what let replay
	// rebuild the fleet latency table from the WAL.
	EvRequestEnd
	// EvAnomaly is one streaming-detector firing: Fn is the offending
	// series name, Name the detector rule ("ewma-z", "rate", "static"),
	// Arg0 the observed value, Arg1 the detection score scaled by 100,
	// Ret the series' observation count at firing. Anomaly events flow
	// through the WAL like any other kind, so the offline incident
	// rebuild sees exactly the detections the live correlator saw.
	EvAnomaly
	// EvSnapshot is one copy-on-write variant checkpoint captured at a
	// quiescent rendezvous: Name is the protected function, Arg0 the
	// libc-call ordinal the checkpoint anchors to, Arg1 the resident page
	// count at capture, Ret the checkpoint generation.
	EvSnapshot
	// EvRollback is one PolicyRollback recovery: Name is the protected
	// function, Arg0 the root-cause libc-call ordinal (the first divergence
	// of the rolled-back region), Arg1 the recovery latency in cycles (the
	// checkpoint restore), Ret the restored checkpoint generation.
	EvRollback
	// EvRegionAbort is one mid-flight region unwind: the monitor aborted a
	// compromised region (dead follower under PolicyRollback) back to its
	// Invoke boundary instead of letting it run to completion. Name is the
	// protected function.
	EvRegionAbort
	// EvLedgerCell is one cost-ledger cell's movement since its region's
	// previous flush: Fn is the protected region, Name the interned
	// "phase/class" pair, Variant the cell's variant, Arg0 the cycles,
	// Arg1 the number of charges, Ret the bytes moved. A region flushes at
	// its mvx_end and at the end of the run, so the stream of these events
	// is what lets replay rebuild the ledger from the WAL.
	EvLedgerCell
	// EvTrampoline is one pass through the MPK trampoline of Figure 4,
	// recorded at entry: Name is the libc call, Arg0 the thread's own PKRU
	// (restored on exit) in its low 32 bits and the monitor's PKRU in its
	// high 32, Arg1 the unsafe SP and Ret the safe-stack top (both 0 when
	// the safe stack is disabled).
	EvTrampoline
	// EvSpan is one typed telemetry span (rendezvous, emulation, drain,
	// variant creation), recorded when it ends: TS is the end, Name is
	// "<kind>:<detail>", Arg0 the duration in cycles, Arg1/Ret the kind's
	// payload (the emulation category code in Arg1 for rendezvous,
	// emulation and drain spans).
	EvSpan
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvLibcEnter:
		return "libc-enter"
	case EvLibcExit:
		return "libc-exit"
	case EvLockstep:
		return "lockstep"
	case EvEmulated:
		return "emulated"
	case EvPKRUWrite:
		return "pkru-write"
	case EvStackPivot:
		return "stack-pivot"
	case EvVariantPhase:
		return "variant-phase"
	case EvRegionStart:
		return "region-start"
	case EvRegionEnd:
		return "region-end"
	case EvPageFault:
		return "page-fault"
	case EvSyscall:
		return "syscall"
	case EvAlarm:
		return "alarm"
	case EvSpanBegin:
		return "span-begin"
	case EvSpanEnd:
		return "span-end"
	case EvWatchdog:
		return "watchdog"
	case EvFaultInjected:
		return "fault-injected"
	case EvFollowerDetached:
		return "follower-detached"
	case EvFollowerRestarted:
		return "follower-restarted"
	case EvLedger:
		return "ledger"
	case EvRequestStart:
		return "request-start"
	case EvRequestEnd:
		return "request-end"
	case EvAnomaly:
		return "anomaly"
	case EvSnapshot:
		return "snapshot"
	case EvRollback:
		return "rollback"
	case EvRegionAbort:
		return "region-abort"
	case EvLedgerCell:
		return "ledger-cell"
	case EvTrampoline:
		return "trampoline"
	case EvSpan:
		return "span"
	default:
		return "unknown"
	}
}

// Variant attributes an event to one member of the MVX variant set. It is
// the variant's dense index in its set: 0 is the leader, k is follower
// slot k. The black-box WAL keeps its own byte encoding (package blackbox),
// so this numbering never reaches disk.
type Variant uint8

// MaxFollowers bounds the follower-slot count of a variant set. It is
// limited by the MPK key space: 16 keys minus the reserved key 0, the
// monitor key, and the leader key leaves headroom for 8 follower windows.
const MaxFollowers = 8

// MaxVariants bounds a variant set: the leader plus MaxFollowers slots.
const MaxVariants = 1 + MaxFollowers

// Variant values.
const (
	// VariantLeader is the leader (or any thread outside a variant set).
	VariantLeader Variant = 0
	// VariantFollower is the first follower slot, the pair's follower.
	VariantFollower Variant = 1
	// VariantNone marks events with no variant affinity (kernel, monitor
	// bookkeeping). It sits past the last follower slot.
	VariantNone Variant = MaxVariants
)

// String names the variant.
func (v Variant) String() string {
	switch {
	case v == VariantLeader:
		return "leader"
	case v == VariantFollower:
		return "follower"
	case v < VariantNone:
		return "follower" + string(rune('0'+int(v)))
	default:
		return "-"
	}
}

// Event is one flight-recorder record. Events are small value types; the
// ring buffer stores them by value so steady-state recording does not
// allocate.
type Event struct {
	// Seq is the global append order.
	Seq uint64
	// VSeq is the per-variant append order — the deterministic index used
	// by forensics reports (the global interleaving of two concurrently
	// executing variants is not deterministic; each variant's own stream
	// is).
	VSeq uint64
	// TS is the virtual-clock reading (total CPU cycles) at record time.
	TS clock.Cycles
	// Kind types the event.
	Kind EventKind
	// Variant attributes the event.
	Variant Variant
	// TID is the simulated thread id (0 if not applicable).
	TID int
	// Fn is the simulated function issuing the event, when the recording
	// site knows it (libc enter/exit record the caller). It is what lets
	// the offline trace diff attribute a divergent libc call to a function
	// the way Section 3.2 attributes a divergent basic block.
	Fn string
	// Name is the call/phase/reason name.
	Name string
	// Arg0, Arg1, Ret carry kind-specific payload.
	Arg0, Arg1, Ret uint64
}

// Config sizes a Recorder.
type Config struct {
	// Capacity is the ring-buffer event capacity (default DefaultCapacity).
	Capacity int
	// ForensicWindow is how many trailing events per variant a forensics
	// report includes (default DefaultForensicWindow).
	ForensicWindow int
	// Clock supplies virtual-clock timestamps; nil timestamps every event
	// as 0 (still deterministic).
	Clock *clock.Counter
}

// DefaultCapacity is the default ring size. It is deliberately generous:
// at about 4.5 events per intercepted libc call (a traced
// nginx-rollback-attack request records 714 over 160 interceptions) it
// holds the last 900 or so interceptions, a few hundred calls of each
// variant, far more than a forensic window needs.
const DefaultCapacity = 4096

// DefaultForensicWindow is the per-variant event tail a report shows.
const DefaultForensicWindow = 16

// SeriesID names one of the fixed metric series the streaming anomaly
// detectors (internal/obs/anomaly) consume. The enum is small and closed
// on purpose: feed sites pass an integer, the detector keeps a fixed
// array of per-series state, and the hot path never hashes a string.
type SeriesID uint8

// The detector-fed series.
const (
	// SeriesRendezvous is the leader's per-call synchronization cost —
	// the rendezvous.leader.cycles observations from the lockstep engine.
	SeriesRendezvous SeriesID = iota
	// SeriesLag is the pipelined follower's drain lag in calls.
	SeriesLag
	// SeriesPipelineDepth is the run-ahead ring occupancy after an append.
	SeriesPipelineDepth
	// SeriesDivergence is the alarm stream (one observation per alarm).
	SeriesDivergence
	// SeriesFleetLatency is the served-request latency in cycles.
	SeriesFleetLatency
	// SeriesCount bounds per-series state arrays.
	SeriesCount
)

// seriesNames are the interned series labels EvAnomaly events carry in Fn,
// matching the recorder metric series each one is fed from.
var seriesNames = [SeriesCount]string{
	SeriesRendezvous:    "rendezvous.cycles",
	SeriesLag:           "rendezvous.lag",
	SeriesPipelineDepth: "pipeline.depth",
	SeriesDivergence:    "divergence.rate",
	SeriesFleetLatency:  "fleet.latency.cycles",
}

// String names the series (the Fn attribution of its EvAnomaly events).
func (id SeriesID) String() string {
	if id >= SeriesCount {
		return "unknown"
	}
	return seriesNames[id]
}

// SeriesSink consumes metric-series observations — the anomaly detector's
// input feed. ObserveSeries is invoked OUTSIDE the recorder lock, so an
// implementation may call back into the Recorder (to record EvAnomaly
// events); it must be internally synchronized and allocation-free on the
// non-firing path.
type SeriesSink interface {
	ObserveSeries(id SeriesID, ts clock.Cycles, v uint64)
}

// Tap is the fold of a derived table over the event stream. The cost
// ledger, the request fleet and the incident engine implement it, each
// TapEvent sharing its table's live mutation, so folding a black-box WAL
// through them (replay.Replay.Tables) rebuilds the live tables. A tap
// attached with SetTap (live, the incident engine) runs right after the
// durable sink, under the recorder's lock, in exact record order — which
// is also WAL order — so it must be fast and must NOT call back into the
// Recorder.
type Tap interface {
	TapEvent(e Event)
}

// Sink receives every recorded event and alarm *before* ring eviction can
// lose it — the hook the black-box trace WAL (internal/obs/blackbox) hangs
// off. Sink methods are invoked under the recorder's lock, in exact record
// order, so implementations must be fast, must not block indefinitely, and
// must not call back into the Recorder. A sink that fails internally must
// swallow the error (and count it): the flight recorder never propagates
// sink failures into the instrumented hot path.
type Sink interface {
	// SinkEvent receives one event, in global append order.
	SinkEvent(e Event)
	// SinkAlarm receives one alarm's full context, after its EvAlarm event.
	SinkAlarm(a AlarmInfo)
	// Flush forces buffered records to durable storage. The recorder calls
	// it after every alarm so the WAL tail survives a crash of the host
	// process immediately after a divergence.
	Flush() error
}

// Recorder is the flight recorder. The zero value of the *pointer* (nil)
// is the disabled recorder: every method is a nil-safe no-op.
type Recorder struct {
	mu      sync.Mutex
	ring    *ring
	vseq    [VariantNone + 1]uint64
	clk     atomic.Pointer[clock.Counter]
	window  int
	metrics *Metrics
	cells   spanCells
	alarms  []AlarmInfo
	evicted uint64
	sink    Sink
	tap     Tap
	series  atomic.Value // SeriesSink, boxed in seriesBox
}

// seriesBox wraps a SeriesSink so atomic.Value stores stay type-consistent
// (including the detach case, which stores a box holding nil).
type seriesBox struct{ s SeriesSink }

// NewRecorder creates an enabled flight recorder.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.ForensicWindow <= 0 {
		cfg.ForensicWindow = DefaultForensicWindow
	}
	r := &Recorder{
		ring:    newRing(cfg.Capacity),
		window:  cfg.ForensicWindow,
		metrics: NewMetrics(),
	}
	r.cells = newSpanCells(r.metrics)
	if cfg.Clock != nil {
		r.clk.Store(cfg.Clock)
	}
	return r
}

// SetClock attaches (or replaces) the virtual clock used for timestamps —
// for recorders created before the process they observe is booted.
func (r *Recorder) SetClock(c *clock.Counter) {
	if r == nil {
		return
	}
	r.clk.Store(c)
}

// SetSink attaches (or, with nil, detaches) a durable event sink. Set it
// before the recorded process runs: events recorded earlier are not
// replayed into the sink.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// SetTap attaches (or, with nil, detaches) an event tap. The tap sees
// every subsequently recorded event under the recorder lock, in record
// order — the incident correlator's feed.
func (r *Recorder) SetTap(t Tap) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tap = t
	r.mu.Unlock()
}

// SetSeriesSink attaches (or, with nil, detaches) the metric-series sink
// the ObserveSeries feed sites deliver to — the anomaly detector's input.
func (r *Recorder) SetSeriesSink(s SeriesSink) {
	if r == nil {
		return
	}
	r.series.Store(seriesBox{s: s})
}

// ObserveSeries delivers one observation of a detector-fed series, stamped
// with the current virtual-clock reading. Nil-safe and allocation-free; a
// no-op until SetSeriesSink attaches a consumer. Feed sites call it
// outside any recorder-internal lock, so the sink may record EvAnomaly
// events back into this recorder.
func (r *Recorder) ObserveSeries(id SeriesID, v uint64) {
	if r == nil {
		return
	}
	box, _ := r.series.Load().(seriesBox)
	if box.s == nil {
		return
	}
	box.s.ObserveSeries(id, r.now(), v)
}

// Config returns the recorder's effective configuration (Clock omitted) —
// the sizing the black-box WAL persists so offline replay can rebuild the
// same ring view and forensic windows.
func (r *Recorder) Config() Config {
	if r == nil {
		return Config{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Config{Capacity: len(r.ring.buf), ForensicWindow: r.window}
}

// Enabled reports whether the recorder records. Instrumentation sites use
// it to skip argument preparation that would allocate.
func (r *Recorder) Enabled() bool { return r != nil }

// Metrics returns the recorder's metrics registry (nil when disabled; the
// registry's methods are themselves nil-safe).
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.metrics
}

// now reads the virtual clock.
func (r *Recorder) now() clock.Cycles {
	if c := r.clk.Load(); c != nil {
		return c.Cycles()
	}
	return 0
}

// Now returns the recorder's current virtual-clock reading (0 when
// disabled or clockless). Request-span instrumentation samples it once and
// passes the reading to RecordInAt so the aggregate it updates and the
// event it persists carry the identical timestamp — the byte-for-byte
// replay discipline.
func (r *Recorder) Now() clock.Cycles {
	if r == nil {
		return 0
	}
	return r.now()
}

// Record appends one event stamped with the current virtual-clock reading.
func (r *Recorder) Record(kind EventKind, v Variant, tid int, name string, a0, a1, ret uint64) {
	if r == nil {
		return
	}
	r.recordAt(r.now(), kind, v, tid, "", name, a0, a1, ret)
}

// RecordAt appends one event with an explicit timestamp (for sites that
// sampled the clock earlier, e.g. a call entry recorded after its
// rendezvous completed).
func (r *Recorder) RecordAt(ts clock.Cycles, kind EventKind, v Variant, tid int, name string, a0, a1, ret uint64) {
	if r == nil {
		return
	}
	r.recordAt(ts, kind, v, tid, "", name, a0, a1, ret)
}

// RecordIn is Record with function attribution: fn names the simulated
// function issuing the call (libc instrumentation passes the calling
// thread's current function, so offline trace diffs can place a divergent
// call the way Section 3.2 places a divergent basic block).
func (r *Recorder) RecordIn(fn string, kind EventKind, v Variant, tid int, name string, a0, a1, ret uint64) {
	if r == nil {
		return
	}
	r.recordAt(r.now(), kind, v, tid, fn, name, a0, a1, ret)
}

// RecordInAt is RecordAt with function attribution.
func (r *Recorder) RecordInAt(ts clock.Cycles, fn string, kind EventKind, v Variant, tid int, name string, a0, a1, ret uint64) {
	if r == nil {
		return
	}
	r.recordAt(ts, kind, v, tid, fn, name, a0, a1, ret)
}

func (r *Recorder) recordAt(ts clock.Cycles, kind EventKind, v Variant, tid int, fn, name string, a0, a1, ret uint64) {
	if v > VariantNone {
		v = VariantNone
	}
	r.mu.Lock()
	r.vseq[v]++
	if r.ring.full() {
		r.evicted++
	}
	e := Event{
		Seq:     r.ring.seq + 1,
		VSeq:    r.vseq[v],
		TS:      ts,
		Kind:    kind,
		Variant: v,
		TID:     tid,
		Fn:      fn,
		Name:    name,
		Arg0:    a0,
		Arg1:    a1,
		Ret:     ret,
	}
	r.ring.push(e)
	if r.sink != nil {
		r.sink.SinkEvent(e)
	}
	if r.tap != nil {
		r.tap.TapEvent(e)
	}
	r.mu.Unlock()
}

// Events returns the buffered events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.snapshot()
}

// Len returns the number of buffered events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.len()
}

// Total returns the number of events ever recorded (including evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.seq
}

// Evicted returns how many events the ring has overwritten before they were
// ever read — the flight recorder's loss counter. With a durable sink
// attached the events still exist in the WAL, which is exactly why
// Total−Len is no longer a sufficient loss signal: it cannot distinguish
// "lost forever" from "spilled to disk".
func (r *Recorder) Evicted() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// PublishDerived copies recorder-internal counters — ring-eviction loss,
// lifetime totals, buffered length — into the metrics registry as gauges,
// so /metrics scrapes and metric table dumps see them. Exporters call it
// immediately before reading the registry; keeping these out of the record
// path keeps Record free of extra registry locking.
func (r *Recorder) PublishDerived() {
	if r == nil {
		return
	}
	r.mu.Lock()
	evicted, total, buffered := r.evicted, r.ring.seq, r.ring.len()
	r.mu.Unlock()
	r.metrics.SetGauge("events.evicted", float64(evicted))
	r.metrics.SetGauge("events.total", float64(total))
	r.metrics.SetGauge("events.buffered", float64(buffered))
	r.metrics.SetGauge("uptime.cycles", float64(r.now()))
}
