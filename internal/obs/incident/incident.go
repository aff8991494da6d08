// Package incident is the correlation half of the sMVX incident plane: it
// stitches temporally adjacent signal events — divergence alarms, injected
// faults, policy detaches and restarts, rollback recoveries,
// anomaly-detector firings, and the watchdog trips of older WALs — into
// incident objects an operator can read top-down, instead of
// hand-correlating four telemetry endpoints during a chaos run.
//
// The engine hangs off the flight recorder as an obs.Tap: it consumes
// every event under the recorder lock, in exact record order. Record
// order is also WAL order, which is the whole trick behind the offline
// rebuild: folding a WAL's event stream through the same TapEvent gives
// byte-for-byte the live incident table (`smvx-replay tables`), the
// same discipline the ledger and fleet rebuilds follow.
//
// Correlation is windowed: a signal event within WindowCycles of the
// incident's last event merges into it; a later one opens a new incident.
// The first event in the window is the root-cause candidate — causality
// in this event stream runs forward (a fault is injected, then detected,
// then contained), so the earliest signal names the origin, with its
// libc-call ordinal carried along (EvFaultInjected.Arg0 is the follower
// call ordinal the fault fired at; EvAlarm.Arg0 is the lockstep call
// index at detection).
//
// Determinism: the canonical table (TableText) omits raw timestamps —
// the virtual clock is shared between concurrently executing variants, so
// cross-run timestamps are not reproducible, but the event *sequence* is.
// The JSON snapshot keeps timestamps and the captured forensic bundle for
// live consumption at /incidents.
package incident

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"smvx/internal/obs"
	"smvx/internal/obs/blackbox"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
)

// DefaultWindowCycles is the default correlation window: 2 simulated
// milliseconds, wide enough to bridge an injected fault to the rendezvous
// deadline that detects it at the CLI's default deadline.
const DefaultWindowCycles = clock.Cycles(2 * clock.FrequencyHz / 1000)

// bundleEvents is how many trailing ring events a forensic bundle keeps.
const bundleEvents = 16

// Severity ranks an incident.
type Severity uint8

// Severity levels, ascending.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
	SevCritical
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return "critical"
	}
}

// severityOf ranks one signal event kind. Alarms are the detection the
// whole system exists to produce; a detach means the run degraded; a
// watchdog trip (recorded only by older WALs), anomaly, or state rollback
// is an early warning — the rollback recovered, but only because real
// divergence forced a rewind; an injected fault or a follower restart is
// context, not damage.
func severityOf(k obs.EventKind) Severity {
	switch k {
	case obs.EvAlarm:
		return SevCritical
	case obs.EvFollowerDetached:
		return SevError
	case obs.EvWatchdog, obs.EvAnomaly, obs.EvRollback:
		return SevWarning
	default:
		return SevInfo
	}
}

// signal reports whether an event kind participates in correlation.
func signal(k obs.EventKind) bool {
	switch k {
	case obs.EvAlarm, obs.EvFaultInjected, obs.EvFollowerDetached,
		obs.EvFollowerRestarted, obs.EvWatchdog, obs.EvAnomaly,
		obs.EvRollback:
		return true
	}
	return false
}

// Bundle is the forensic context captured when an incident opens: the
// newest ring events at open time, the cost-ledger and fleet totals, and
// the WAL segment the stream was spilling into. Captured live only — an
// offline rebuild has no live sources, so bundles are excluded from the
// canonical byte-identity table.
type Bundle struct {
	// Events are formatEventLine-style renderings of the trailing ring
	// events at open time, oldest first.
	Events []string `json:"events,omitempty"`
	// LedgerCalls/LedgerCycles/LedgerAllocs are the cost-ledger totals.
	LedgerCalls  uint64 `json:"ledger_calls,omitempty"`
	LedgerCycles uint64 `json:"ledger_cycles,omitempty"`
	LedgerAllocs uint64 `json:"ledger_allocs,omitempty"`
	// RequestsStarted/Completed/Aborted are the fleet totals.
	RequestsStarted   uint64 `json:"requests_started,omitempty"`
	RequestsCompleted uint64 `json:"requests_completed,omitempty"`
	RequestsAborted   uint64 `json:"requests_aborted,omitempty"`
	// WALSegment names the black-box segment being written at open time.
	WALSegment string `json:"wal_segment,omitempty"`
}

// Incident is one correlated group of signal events.
type Incident struct {
	// ID is 1-based open order.
	ID int
	// OpenTS / LastTS bracket the incident on the virtual clock.
	OpenTS, LastTS clock.Cycles
	// Severity is the maximum severity over the member events.
	Severity Severity
	// Events is the causal timeline, in record order.
	Events []obs.Event
	// Bundle is the forensic context captured at open (nil offline).
	Bundle *Bundle
}

// Root returns the root-cause candidate: the first event in the window.
func (in *Incident) Root() obs.Event {
	if len(in.Events) == 0 {
		return obs.Event{}
	}
	return in.Events[0]
}

// RootCause renders the root-cause candidate with its libc-call-ordinal
// attribution — "fault-injected arg-flip:open@call4".
func (in *Incident) RootCause() string {
	return describeSignal(in.Root())
}

// DetectionLatency returns the virtual cycles from the first injected
// fault to the first detection-class event (alarm, watchdog, anomaly) in
// the timeline — the incident plane's headline number. ok is false when
// the incident has no fault/detection pair to measure.
func (in *Incident) DetectionLatency() (clock.Cycles, bool) {
	var faultTS clock.Cycles
	haveFault := false
	for _, e := range in.Events {
		switch e.Kind {
		case obs.EvFaultInjected:
			if !haveFault {
				faultTS, haveFault = e.TS, true
			}
		case obs.EvAlarm, obs.EvWatchdog, obs.EvAnomaly:
			if haveFault {
				if e.TS < faultTS {
					return 0, true
				}
				return e.TS - faultTS, true
			}
		}
	}
	return 0, false
}

// RecoveryLatency returns the virtual cycles from the first
// detection-class event (alarm, watchdog, anomaly) to the first rollback
// completion in the timeline — how long the survivable path took to rewind
// both variants and resume. ok is false when the incident has no
// detection/rollback pair to measure.
func (in *Incident) RecoveryLatency() (clock.Cycles, bool) {
	var detTS clock.Cycles
	haveDet := false
	for _, e := range in.Events {
		switch e.Kind {
		case obs.EvAlarm, obs.EvWatchdog, obs.EvAnomaly:
			if !haveDet {
				detTS, haveDet = e.TS, true
			}
		case obs.EvRollback:
			if haveDet {
				if e.TS < detTS {
					return 0, true
				}
				return e.TS - detTS, true
			}
		}
	}
	return 0, false
}

// describeSignal renders one signal event without its raw timestamp, in
// the fixed vocabulary the canonical table is built from.
func describeSignal(e obs.Event) string {
	switch e.Kind {
	case obs.EvAlarm:
		return fmt.Sprintf("%s %s@call%d", e.Kind, e.Name, e.Arg0)
	case obs.EvFaultInjected:
		return fmt.Sprintf("%s %s@call%d", e.Kind, e.Name, e.Arg0)
	case obs.EvFollowerDetached:
		return fmt.Sprintf("%s %s after %d calls", e.Kind, e.Name, e.Arg0)
	case obs.EvFollowerRestarted:
		return fmt.Sprintf("%s %s #%d", e.Kind, e.Name, e.Arg0)
	case obs.EvWatchdog:
		return fmt.Sprintf("%s %s", e.Kind, e.Name)
	case obs.EvAnomaly:
		return fmt.Sprintf("%s %s on %s", e.Kind, e.Name, e.Fn)
	case obs.EvRollback:
		return fmt.Sprintf("%s %s@call%d gen%d", e.Kind, e.Name, e.Arg0, e.Ret)
	default:
		return e.Kind.String()
	}
}

// Engine correlates the recorder's event stream into incidents. It
// implements obs.Tap; attach with rec.SetTap(eng). All methods are
// nil-safe: a nil *Engine is the disabled state.
type Engine struct {
	mu     sync.Mutex
	window clock.Cycles
	open   *Incident
	all    []*Incident

	// ring is the engine's own copy of recent events (all kinds), the
	// bundle's context capture. Fixed array: the per-event tap cost is a
	// value copy, never an allocation.
	ring    [bundleEvents]obs.Event
	ringPos int
	ringLen int

	// Live bundle sources; all optional, nil offline.
	led   *ledger.Ledger
	fleet *obs.Fleet
	bb    *blackbox.Writer
}

// New creates an engine with the given correlation window (<= 0 uses
// DefaultWindowCycles).
func New(window clock.Cycles) *Engine {
	if window <= 0 {
		window = DefaultWindowCycles
	}
	return &Engine{window: window}
}

// Window returns the correlation window.
func (e *Engine) Window() clock.Cycles {
	if e == nil {
		return 0
	}
	return e.window
}

// SetSources attaches the live snapshot sources a forensic bundle
// captures from. Any may be nil. Call before the run starts.
func (e *Engine) SetSources(led *ledger.Ledger, fleet *obs.Fleet, bb *blackbox.Writer) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.led, e.fleet, e.bb = led, fleet, bb
	e.mu.Unlock()
}

// TapEvent consumes one recorded event — the obs.Tap hot path. Invoked
// under the recorder lock: it must not call back into the recorder, and
// on the non-signal path it performs no allocation (a fixed-ring value
// copy only).
func (e *Engine) TapEvent(ev obs.Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.ring[e.ringPos] = ev
	e.ringPos = (e.ringPos + 1) % bundleEvents
	if e.ringLen < bundleEvents {
		e.ringLen++
	}
	if signal(ev.Kind) {
		e.applyLocked(ev)
	}
	e.mu.Unlock()
}

// applyLocked merges one signal event into the open incident or opens a
// new one. Pure function of the event sequence — the live tap and the
// offline WAL fold produce identical incident state.
func (e *Engine) applyLocked(ev obs.Event) {
	in := e.open
	if in == nil || ev.TS > in.LastTS+e.window {
		in = &Incident{
			ID:     len(e.all) + 1,
			OpenTS: ev.TS,
			LastTS: ev.TS,
		}
		in.Bundle = e.captureBundleLocked()
		e.open = in
		e.all = append(e.all, in)
	}
	in.Events = append(in.Events, ev)
	if ev.TS > in.LastTS {
		in.LastTS = ev.TS
	}
	if sev := severityOf(ev.Kind); sev > in.Severity {
		in.Severity = sev
	}
}

// captureBundleLocked snapshots the live sources at incident open. The
// ledger reads are atomics and the fleet/writer locks are never held
// while their owners call into the recorder, so taking them under the
// recorder lock (we are inside the tap) cannot deadlock. Returns nil when
// no sources are attached and the ring is empty (the offline fold).
func (e *Engine) captureBundleLocked() *Bundle {
	if e.led == nil && e.fleet == nil && e.bb == nil {
		return nil
	}
	b := &Bundle{}
	for i := 0; i < e.ringLen; i++ {
		ev := e.ring[(e.ringPos-e.ringLen+i+bundleEvents*2)%bundleEvents]
		b.Events = append(b.Events, fmt.Sprintf("%s %s", ev.Kind, ev.Name))
	}
	if e.led != nil {
		b.LedgerCalls, b.LedgerCycles, b.LedgerAllocs = e.led.Totals()
	}
	if e.fleet != nil {
		b.RequestsStarted, b.RequestsCompleted, b.RequestsAborted, _ = e.fleet.Totals()
	}
	if e.bb != nil {
		b.WALSegment = e.bb.CurrentSegment()
	}
	return b
}

// Incidents returns a snapshot of the correlated incidents, in open
// order. The returned incidents share no mutable state with the engine.
func (e *Engine) Incidents() []Incident {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Incident, 0, len(e.all))
	for _, in := range e.all {
		cp := *in
		cp.Events = append([]obs.Event(nil), in.Events...)
		out = append(out, cp)
	}
	return out
}

// Count returns how many incidents have opened.
func (e *Engine) Count() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.all)
}

// ActiveAt counts incidents still inside their correlation window at the
// given clock reading — the /healthz "incidents_active" figure.
func (e *Engine) ActiveAt(now clock.Cycles) int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, in := range e.all {
		if now <= in.LastTS+e.window {
			n++
		}
	}
	return n
}

// IncidentSnapshot is one incident's JSON form (the /incidents body).
type IncidentSnapshot struct {
	ID               int      `json:"id"`
	Severity         string   `json:"severity"`
	OpenCycles       uint64   `json:"open_cycles"`
	LastCycles       uint64   `json:"last_cycles"`
	RootCause        string   `json:"root_cause"`
	RootCallOrdinal  uint64   `json:"root_call_ordinal"`
	DetectionLatency uint64   `json:"detection_latency_cycles"`
	RecoveryLatency  uint64   `json:"recovery_latency_cycles"`
	Timeline         []string `json:"timeline"`
	Bundle           *Bundle  `json:"bundle,omitempty"`
}

// EngineSnapshot is the /incidents JSON body.
type EngineSnapshot struct {
	WindowCycles uint64             `json:"window_cycles"`
	Total        int                `json:"total"`
	Incidents    []IncidentSnapshot `json:"incidents"`
}

// Snapshot derives the JSON view.
func (e *Engine) Snapshot() EngineSnapshot {
	if e == nil {
		return EngineSnapshot{}
	}
	incs := e.Incidents()
	snap := EngineSnapshot{WindowCycles: uint64(e.window), Total: len(incs)}
	for i := range incs {
		in := &incs[i]
		is := IncidentSnapshot{
			ID:              in.ID,
			Severity:        in.Severity.String(),
			OpenCycles:      uint64(in.OpenTS),
			LastCycles:      uint64(in.LastTS),
			RootCause:       in.RootCause(),
			RootCallOrdinal: in.Root().Arg0,
			Bundle:          in.Bundle,
		}
		if lat, ok := in.DetectionLatency(); ok {
			is.DetectionLatency = uint64(lat)
		}
		if lat, ok := in.RecoveryLatency(); ok {
			is.RecoveryLatency = uint64(lat)
		}
		for _, ev := range in.Events {
			is.Timeline = append(is.Timeline, describeSignal(ev))
		}
		snap.Incidents = append(snap.Incidents, is)
	}
	return snap
}

// WriteJSON writes the snapshot as deterministic indented JSON.
func (e *Engine) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e.Snapshot())
}

// PublishTo exports incident gauges into m — the smvx_incidents_* series.
// Scrape-time only, not part of the tap hot path.
func (e *Engine) PublishTo(m *obs.Metrics) {
	if e == nil || m == nil {
		return
	}
	incs := e.Incidents()
	bySev := [4]int{}
	recovered := 0
	for i := range incs {
		bySev[incs[i].Severity]++
		if _, ok := incs[i].RecoveryLatency(); ok {
			recovered++
		}
	}
	m.SetGauge("incidents.total", float64(len(incs)))
	m.SetGauge("incidents.recovered", float64(recovered))
	for sev := SevInfo; sev <= SevCritical; sev++ {
		m.SetGauge("incidents.severity{level="+sev.String()+"}", float64(bySev[sev]))
	}
}

// TableText renders the canonical incident table — the byte-identity
// artifact `smvx-replay tables` reproduces from the WAL alone. It
// deliberately contains no raw timestamps (cross-run interleaving is not
// deterministic; the event sequence is) and no bundle data (bundles are
// live-only captures).
func (e *Engine) TableText() string {
	var b strings.Builder
	window := clock.Cycles(0)
	if e != nil {
		window = e.window
	}
	fmt.Fprintf(&b, "incident table (window=%d cycles)\n", window)
	incs := e.Incidents()
	if len(incs) == 0 {
		b.WriteString("  no incidents\n")
		return b.String()
	}
	for i := range incs {
		in := &incs[i]
		fmt.Fprintf(&b, "#%d severity=%s events=%d root=%s\n",
			in.ID, in.Severity, len(in.Events), in.RootCause())
		for _, ev := range in.Events {
			fmt.Fprintf(&b, "    %s\n", describeSignal(ev))
		}
	}
	return b.String()
}
