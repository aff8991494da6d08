// Package replay rebuilds a flight-recorder timeline from a black-box
// trace WAL (internal/obs/blackbox) — offline, after the recorded process
// is gone.
//
// The live recorder can only show the ring's surviving tail; the WAL holds
// every event that was ever recorded. Replay serves both views:
//
//   - RingView truncates the full WAL stream to exactly what the live ring
//     held at exit (the newest Capacity events, per the persisted Meta), so
//     forensics reports and Chrome traces regenerated offline are
//     byte-identical to what the live process would have printed;
//   - the full stream feeds the libc-call diff (diff.go), which extends the
//     Section 3.2 basic-block divergence analysis to recorded runs: diff
//     two runs' WALs (success vs fail login) or one run's leader and
//     follower streams, and the first divergent libc call — attributed to
//     its simulated calling function via Event.Fn — flags the same
//     function the in-memory block diff flags.
package replay

import (
	"fmt"
	"io"
	"strconv"

	"smvx/internal/obs"
	"smvx/internal/obs/blackbox"
	"smvx/internal/obs/incident"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
)

// Replay is one run reconstructed from its WAL directory.
type Replay struct {
	// Dir is the WAL directory the run was loaded from.
	Dir string
	// Run is the decoded WAL content (meta, events, alarms, damage notes).
	Run *blackbox.Run
}

// Load reads a WAL directory into a Replay. Damaged segments load
// partially; the damage notes are preserved in Run.Damage.
func Load(dir string) (*Replay, error) {
	run, err := blackbox.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	return &Replay{Dir: dir, Run: run}, nil
}

// Events returns the full recorded event stream, in append order — every
// event the WAL retained, including those the live ring evicted.
func (r *Replay) Events() []obs.Event { return r.Run.Events }

// Alarms returns the recorded alarm contexts, in raise order.
func (r *Replay) Alarms() []obs.AlarmInfo { return r.Run.Alarms }

// RingView returns what the live ring buffer held when the run ended: the
// newest min(Meta.Capacity, total) events. This — not the full stream — is
// the input for regenerating live-identical artifacts, because the live
// exporters only ever saw the ring. A missing or zero capacity (damaged
// meta record) yields the full stream.
func (r *Replay) RingView() []obs.Event {
	ev := r.Run.Events
	if c := r.Run.Meta.Capacity; c > 0 && len(ev) > c {
		return ev[len(ev)-c:]
	}
	return ev
}

// ForensicReports regenerates the flight-recorder reports the live
// process's Recorder.ForensicReports would have produced at exit —
// byte-identical, because both render the same alarm contexts over the
// same ring snapshot with the same forensic window.
func (r *Replay) ForensicReports() []string {
	if len(r.Run.Alarms) == 0 {
		return nil
	}
	return obs.BuildForensicReports(r.Run.Alarms, r.RingView(), r.Run.Meta.ForensicWindow)
}

// WriteChromeTrace regenerates the live recorder's Chrome trace_event JSON
// from the ring view.
func (r *Replay) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTraceEvents(w, r.RingView())
}

// TableText regenerates the live recorder's plain-text event table from
// the ring view.
func (r *Replay) TableText() string {
	return obs.TableTextEvents(r.RingView())
}

// RebuildMetrics re-derives a metrics registry from the full event stream.
// It is a best-effort reconstruction, not a byte-identical one: only
// metrics whose inputs are present in the event stream can be rebuilt
// (event-kind counts, alarm counters, lockstep categories, emulated bytes,
// span-duration histograms). Registry entries the live process derived
// from non-event state — libc per-call cycle histograms, watchdog
// internals — are absent.
func (r *Replay) RebuildMetrics() *obs.Metrics {
	m := obs.NewMetrics()
	for _, e := range r.Run.Events {
		m.Inc("replay.events." + obs.SanitizeName(e.Kind.String()))
		switch e.Kind {
		case obs.EvLockstep:
			m.Inc(obs.LockstepCategoryMetricName(e.Arg0))
		case obs.EvEmulated:
			m.Add("lockstep.emulated.bytes", e.Arg0)
		case obs.EvSpanEnd:
			// EvSpanEnd: Name is "<kind>:<detail>", Arg0 the duration in
			// cycles, Arg1 the category code for rendezvous/emulation spans.
			switch kind := spanKind(e.Name); kind {
			case "rendezvous":
				m.Observe(obs.RendezvousMetricName(e.Arg1), e.Arg0)
			case "emulation":
				m.Observe("emulation.cycles{category="+obs.CategoryLabel(e.Arg1)+"}", e.Arg0)
			case "variant-create":
				m.Observe("variant.create.cycles", e.Arg0)
			}
		}
	}
	for _, a := range r.Run.Alarms {
		m.Inc("alarm.total")
		m.Inc("alarm.reason." + obs.SanitizeName(a.Reason))
	}
	m.SetGauge("replay.events.total", float64(len(r.Run.Events)))
	m.SetGauge("replay.segments", float64(r.Run.Segments))
	m.SetGauge("replay.bytes", float64(r.Run.Bytes))
	m.SetGauge("replay.damage.notes", float64(len(r.Run.Damage)))
	return m
}

// RebuildLedger re-derives the rendezvous cost ledger from the full event
// stream. Unlike RebuildMetrics this reconstruction is exact: every live
// ledger charge is mirrored as one EvLedger event (Fn = region, Name =
// "phase/class", Arg0/Arg1/Ret = cycles/allocs/bytes), so folding the
// stream back through AddRaw reproduces the live ledger field-for-field —
// the same byte-identity discipline as the forensics reports. The run
// labels (lockstep mode, policy, lag window) come from the WAL meta.
func (r *Replay) RebuildLedger() *ledger.Ledger {
	led := ledger.New()
	labels := r.Run.Meta.Labels
	lag := 0
	if v, err := strconv.Atoi(labels["lag-window"]); err == nil {
		lag = v
	}
	led.SetRun(labels["lockstep"], labels["policy"], lag)
	for _, e := range r.Run.Events {
		if e.Kind != obs.EvLedger {
			continue
		}
		p, c, ok := ledger.ParsePhaseClass(e.Name)
		if !ok {
			continue
		}
		led.Region(e.Fn).AddRaw(p, e.Variant, c, 1, e.Arg0, e.Arg1, e.Ret)
	}
	return led
}

// RebuildFleet re-derives the request-fleet aggregate from the event
// stream. Exact like RebuildLedger: every live span mirrors an
// EvRequestStart/EvRequestEnd pair carrying the span's own timestamps and
// durations, and live mutation and this fold go through the same apply
// functions, so the rebuilt fleet's table renders byte-for-byte identical
// to the live one. The lockstep label comes from the WAL meta.
func (r *Replay) RebuildFleet() *obs.Fleet {
	f := obs.NewFleet()
	f.SetRun(r.Run.Meta.Labels["lockstep"])
	for _, e := range r.Run.Events {
		f.Apply(e)
	}
	return f
}

// RebuildIncidents re-derives the incident table from the full event
// stream. Exact like RebuildLedger: the live incident engine is a
// recorder tap, consuming events under the recorder lock in exactly the
// order they were appended to the WAL, so folding the stream back through
// the same TapEvent reproduces the live correlation state and a
// byte-identical canonical table (forensic bundles are live-only captures
// and excluded from that table). The correlation window comes from the
// WAL's "incident-window" meta label when present; window <= 0 with no
// label uses the engine default.
func (r *Replay) RebuildIncidents(window clock.Cycles) *incident.Engine {
	if v, err := strconv.ParseUint(r.Run.Meta.Labels["incident-window"], 10, 64); err == nil && v > 0 {
		window = clock.Cycles(v)
	}
	eng := incident.New(window)
	for _, e := range r.Run.Events {
		eng.TapEvent(e)
	}
	return eng
}

// spanKind splits the "<kind>:<detail>" span naming convention.
func spanKind(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == ':' {
			return name[:i]
		}
	}
	return name
}

// Summary renders a one-screen inspection of the run: metadata, stream
// sizes, per-variant totals, alarms, and any damage notes.
func (r *Replay) Summary() string {
	var leader, follower uint64
	for _, e := range r.Run.Events {
		switch e.Variant {
		case obs.VariantLeader:
			leader++
		case obs.VariantFollower:
			follower++
		}
	}
	s := fmt.Sprintf("blackbox run: %s\n", r.Dir)
	s += fmt.Sprintf("  segments: %d (%d bytes)\n", r.Run.Segments, r.Run.Bytes)
	s += fmt.Sprintf("  ring capacity: %d  forensic window: %d\n",
		r.Run.Meta.Capacity, r.Run.Meta.ForensicWindow)
	for _, k := range sortedLabelKeys(r.Run.Meta.Labels) {
		s += fmt.Sprintf("  label %s=%s\n", k, r.Run.Meta.Labels[k])
	}
	s += fmt.Sprintf("  events: %d total (leader %d, follower %d), ring view %d\n",
		len(r.Run.Events), leader, follower, len(r.RingView()))
	s += fmt.Sprintf("  alarms: %d\n", len(r.Run.Alarms))
	for i, a := range r.Run.Alarms {
		s += fmt.Sprintf("    #%d %s at call %d in %s\n", i+1, a.Reason, a.CallIndex, a.Function)
	}
	for _, d := range r.Run.Damage {
		s += fmt.Sprintf("  damage: %s\n", d)
	}
	return s
}

func sortedLabelKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
