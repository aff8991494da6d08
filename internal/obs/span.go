package obs

import "smvx/internal/sim/clock"

// Typed spans are the tracing half of the live telemetry plane: a span
// measures one logical operation (a lockstep rendezvous, a result
// emulation, a pipelined drain, a variant creation) and records once, at
// its end: one EvSpan event on the ring, stamped with the end and carrying
// the duration, and the duration fed into a labeled histogram — the
// per-category RTT distributions the Prometheus exporter serves as
// smvx_rendezvous_cycles{category=...}. A span cut short (a region abort
// or a crash unwinding through it) records nothing.
//
// Spans are small value types. Beginning a span on a nil Recorder returns
// the zero span, whose End is a no-op: instrumentation sites pay nothing
// (no allocation, no clock read) when telemetry is disabled.

// CategoryLabel returns the metric label slug for a Table 1 emulation
// category code. It mirrors libc.Category (which obs cannot import)
// by code: 1=ret_only, 2=ret_buf, 3=special, 4=local. It is the one
// category label table: libc builds its metric names from it.
func CategoryLabel(code uint64) string {
	switch code {
	case 1:
		return "ret_only"
	case 2:
		return "ret_buf"
	case 3:
		return "special"
	case 4:
		return "local"
	default:
		return "unknown"
	}
}

// Pre-built labeled metric names, indexed by category code, so the enabled
// hot path observes without concatenating strings.
var (
	rendezvousMetricNames = categoryMetricNames("rendezvous.cycles")
	emulationMetricNames  = categoryMetricNames("emulation.cycles")
	drainMetricNames      = categoryMetricNames("drain.cycles")
	lockstepCategoryNames = func() (out [6]string) {
		for code := range out {
			out[code] = "lockstep.category." + CategoryLabel(uint64(code))
		}
		return out
	}()
)

// Pipelined-lockstep metric names, shared between the core producer and
// the experiments/telemetry consumers so the strict-vs-pipelined overhead
// comparison reads the exact series the monitor writes.
const (
	// MetricRendezvousLeaderCycles is the per-libc-call synchronization
	// cost on the leader's critical path (histogram): rendezvous entry
	// plus wait under strict lockstep, ring enqueue plus any backpressure
	// wait under pipelined lockstep. This is the series the strict-vs-
	// pipelined overhead benchmark compares.
	MetricRendezvousLeaderCycles = "rendezvous.leader.cycles"
	// MetricRendezvousLag is how many calls the leader had run ahead when
	// the follower drained a record (histogram, pipelined mode only).
	MetricRendezvousLag = "rendezvous.lag"
	// MetricPipelineDepth is the rendezvous ring's occupancy after the
	// leader's latest append (gauge, pipelined mode only).
	MetricPipelineDepth = "pipeline.depth"
	// MetricLockstepBarrier counts pipelined calls that forced a full
	// ring-draining rendezvous (counter, pipelined mode only).
	MetricLockstepBarrier = "lockstep.barrier"
)

func categoryMetricNames(base string) [6]string {
	var out [6]string
	for code := range out {
		out[code] = base + "{category=" + CategoryLabel(uint64(code)) + "}"
	}
	return out
}

// RendezvousMetricName returns the labeled histogram name a rendezvous
// span of the given category code observes into.
func RendezvousMetricName(code uint64) string {
	if code >= uint64(len(rendezvousMetricNames)) {
		code = 0
	}
	return rendezvousMetricNames[code]
}

// LockstepCategoryMetricName returns the counter a lockstep call of the
// given category code increments, live and in replay.
func LockstepCategoryMetricName(code uint64) string {
	if code >= uint64(len(lockstepCategoryNames)) {
		code = 0
	}
	return lockstepCategoryNames[code]
}

// SpanNames are the names of the lockstep spans one libc call opens. The
// hot path passes a prebuilt field to the matching Begin*Span, so build
// them once per call name (libc's call table holds them on each row)
// rather than once per span.
type SpanNames struct {
	Rendezvous, Emulation, Drain string
}

// NewSpanNames builds the lockstep span names of call.
func NewSpanNames(call string) SpanNames {
	return SpanNames{
		Rendezvous: "rendezvous:" + call,
		Emulation:  "emulation:" + call,
		Drain:      "drain:" + call,
	}
}

// spanCells are the recorder's span and lockstep metric cells, resolved
// once when the recorder is made, indexed by category code where the
// metric is labeled.
type spanCells struct {
	rendezvous, emulation, drain [6]*HistCell
	variantCreate                *HistCell
	lockstepCategory             [6]*CounterCell
}

func newSpanCells(m *Metrics) spanCells {
	var c spanCells
	for code := range c.rendezvous {
		c.rendezvous[code] = m.HistCell(rendezvousMetricNames[code])
		c.emulation[code] = m.HistCell(emulationMetricNames[code])
		c.drain[code] = m.HistCell(drainMetricNames[code])
		c.lockstepCategory[code] = m.CounterCell(lockstepCategoryNames[code])
	}
	c.variantCreate = m.HistCell("variant.create.cycles")
	return c
}

// LockstepCategoryCounter returns the counter cell a lockstep call of the
// given category code increments (LockstepCategoryMetricName's cell); nil,
// whose Inc is a no-op, on a nil recorder.
func (r *Recorder) LockstepCategoryCounter(code uint64) *CounterCell {
	if r == nil {
		return nil
	}
	if code >= uint64(len(r.cells.lockstepCategory)) {
		code = 0
	}
	return r.cells.lockstepCategory[code]
}

// span is the machinery shared by the typed spans.
type span struct {
	rec   *Recorder
	cell  *HistCell
	start clock.Cycles
	v     Variant
	tid   int
	name  string
}

func (r *Recorder) beginSpan(v Variant, tid int, name string, cell *HistCell) span {
	return span{rec: r, cell: cell, start: r.now(), v: v, tid: tid, name: name}
}

// end closes the span: records EvSpan (TS = the end, Arg0 = duration),
// observes the duration into the span's histogram cell, and returns the
// duration.
func (s span) end(a1, ret uint64) clock.Cycles {
	if s.rec == nil {
		return 0
	}
	ts := s.rec.now()
	d := ts - s.start
	s.rec.RecordAt(ts, EvSpan, s.v, s.tid, s.name, uint64(d), a1, ret)
	s.cell.Observe(uint64(d))
	return d
}

// RendezvousSpan measures one leader/follower lockstep rendezvous — from
// the leader posting the call to the paired decision completing. Its
// duration lands in rendezvous.cycles{category=...}.
type RendezvousSpan struct {
	s        span
	category uint64
}

// BeginRendezvousSpan opens the rendezvous span name (the call's
// SpanNames.Rendezvous) for a libc call of the given Table 1 category
// code. Nil-safe: returns a no-op span when disabled.
func (r *Recorder) BeginRendezvousSpan(v Variant, tid int, name string, category uint64) RendezvousSpan {
	if r == nil {
		return RendezvousSpan{}
	}
	if category >= uint64(len(rendezvousMetricNames)) {
		category = 0
	}
	return RendezvousSpan{s: r.beginSpan(v, tid, name, r.cells.rendezvous[category]), category: category}
}

// End closes the rendezvous with the leader's return value.
func (sp RendezvousSpan) End(ret uint64) clock.Cycles {
	return sp.s.end(sp.category, ret)
}

// EmulationSpan measures one leader→follower result emulation (the Table 1
// buffer/return-value copy). Its duration lands in
// emulation.cycles{category=...}.
type EmulationSpan struct {
	s        span
	category uint64
}

// BeginEmulationSpan opens the emulation span name (the call's
// SpanNames.Emulation) for a libc call of the given Table 1 category code.
// Nil-safe.
func (r *Recorder) BeginEmulationSpan(v Variant, tid int, name string, category uint64) EmulationSpan {
	if r == nil {
		return EmulationSpan{}
	}
	if category >= uint64(len(emulationMetricNames)) {
		category = 0
	}
	return EmulationSpan{s: r.beginSpan(v, tid, name, r.cells.emulation[category]), category: category}
}

// End closes the emulation with the number of bytes copied.
func (sp EmulationSpan) End(bytesCopied uint64) clock.Cycles {
	return sp.s.end(sp.category, bytesCopied)
}

// DrainSpan measures the follower's side of one pipelined-lockstep drain:
// dequeue, divergence verification, and result application for a single
// ring record. Its duration lands in drain.cycles{category=...}.
type DrainSpan struct {
	s        span
	category uint64
}

// BeginDrainSpan opens the drain span name (the call's SpanNames.Drain) for
// a libc call of the given Table 1 category code. Nil-safe.
func (r *Recorder) BeginDrainSpan(v Variant, tid int, name string, category uint64) DrainSpan {
	if r == nil {
		return DrainSpan{}
	}
	if category >= uint64(len(drainMetricNames)) {
		category = 0
	}
	return DrainSpan{s: r.beginSpan(v, tid, name, r.cells.drain[category]), category: category}
}

// End closes the drain with the follower's return value.
func (sp DrainSpan) End(ret uint64) clock.Cycles {
	return sp.s.end(sp.category, ret)
}

// VariantCreateSpan measures one end-to-end mvx_start variant creation
// (clone + relocate + thread clone). Its duration lands in
// variant.create.cycles — the full span, as opposed to
// variant.creation.cycles which sums only the Table 2 phase costs.
type VariantCreateSpan struct {
	s span
}

// BeginVariantCreateSpan opens a variant-creation span for the protected
// function fn. Nil-safe.
func (r *Recorder) BeginVariantCreateSpan(tid int, fn string) VariantCreateSpan {
	if r == nil {
		return VariantCreateSpan{}
	}
	return VariantCreateSpan{s: r.beginSpan(VariantNone, tid, "variant-create:"+fn, r.cells.variantCreate)}
}

// End closes the creation span with the number of pointers relocated.
func (sp VariantCreateSpan) End(pointersRelocated uint64) clock.Cycles {
	return sp.s.end(pointersRelocated, 0)
}
