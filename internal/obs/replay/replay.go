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
//   - the full stream folds through the derived tables (tables.go): the
//     cost ledger, the request fleet and the incident engine, built from
//     the WAL's labels exactly as the live run built them, so each
//     rebuilt table equals the live one;
//   - the full stream feeds the libc-call diff (diff.go), which extends the
//     Section 3.2 basic-block divergence analysis to recorded runs: diff
//     two runs' WALs (success vs fail login) or one run's leader stream
//     against each follower's, and the first divergent libc call —
//     attributed to its simulated calling function via Event.Fn — flags
//     the same function the in-memory block diff flags.
package replay

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"smvx/internal/obs"
	"smvx/internal/obs/blackbox"
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
// from non-event state — libc per-call cycle histograms — are absent.
func (r *Replay) RebuildMetrics() *obs.Metrics {
	m := obs.NewMetrics()
	for _, e := range r.Run.Events {
		m.Inc("replay.events." + obs.SanitizeName(e.Kind.String()))
		switch e.Kind {
		case obs.EvLockstep:
			m.Inc(obs.LockstepCategoryMetricName(e.Arg0))
		case obs.EvEmulated:
			m.Add("lockstep.emulated.bytes", e.Arg0)
		case obs.EvSpan, obs.EvSpanEnd:
			// A span (EvSpanEnd before WAL format version 3): Name is
			// "<kind>:<detail>", Arg0 the duration in cycles, Arg1 the
			// category code for rendezvous/emulation spans.
			switch kind, _, _ := strings.Cut(e.Name, ":"); kind {
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

// Summary renders a one-screen inspection of the run: metadata, stream
// sizes, per-variant totals, per-kind totals, alarms, and any damage
// notes. Each variant present gets its own count; events with no variant
// affinity count as none, so the counts sum to the total. Each kind
// present gets its own count too, in kind order.
func (r *Replay) Summary() string {
	var perVariant, perKind [256]uint64
	for _, e := range r.Run.Events {
		perVariant[e.Variant]++
		perKind[e.Kind]++
	}
	var kinds []string
	for k, n := range perKind {
		if n > 0 {
			kinds = append(kinds, fmt.Sprintf("%s %d", obs.EventKind(k), n))
		}
	}
	var counts []string
	none := uint64(len(r.Run.Events))
	for v := obs.VariantLeader; v < obs.VariantNone; v++ {
		if n := perVariant[v]; n > 0 {
			counts = append(counts, fmt.Sprintf("%s %d", v, n))
			none -= n
		}
	}
	if none > 0 {
		counts = append(counts, fmt.Sprintf("none %d", none))
	}
	s := fmt.Sprintf("blackbox run: %s\n", r.Dir)
	s += fmt.Sprintf("  segments: %d (%d bytes)\n", r.Run.Segments, r.Run.Bytes)
	s += fmt.Sprintf("  ring capacity: %d  forensic window: %d\n",
		r.Run.Meta.Capacity, r.Run.Meta.ForensicWindow)
	keys := make([]string, 0, len(r.Run.Meta.Labels))
	for k := range r.Run.Meta.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s += fmt.Sprintf("  label %s=%s\n", k, r.Run.Meta.Labels[k])
	}
	s += fmt.Sprintf("  events: %d total (%s), ring view %d\n",
		len(r.Run.Events), strings.Join(counts, ", "), len(r.RingView()))
	s += fmt.Sprintf("  kinds: %s\n", strings.Join(kinds, ", "))
	s += fmt.Sprintf("  alarms: %d\n", len(r.Run.Alarms))
	for i, a := range r.Run.Alarms {
		s += fmt.Sprintf("    #%d %s at call %d in %s\n", i+1, a.Reason, a.CallIndex, a.Function)
	}
	for _, d := range r.Run.Damage {
		s += fmt.Sprintf("  damage: %s\n", d)
	}
	return s
}
