package replay

import (
	"strconv"

	"smvx/internal/obs"
	"smvx/internal/obs/incident"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
)

// SetTableLabels stamps the derived tables' configuration into a run's
// labels, the ones NewTables reads back, live and from the WAL meta: the
// lockstep mode, divergence policy and lag window, and — for a run that
// correlates incidents — the incident correlation window (0: the engine
// default).
func SetTableLabels(labels map[string]string, lockstep, policy string, lagWindow int, incidents bool, incidentWindow uint64) {
	labels["lockstep"] = lockstep
	labels["policy"] = policy
	labels["lag-window"] = strconv.Itoa(lagWindow)
	if incidents {
		if incidentWindow == 0 {
			incidentWindow = uint64(incident.DefaultWindowCycles)
		}
		labels["incident-window"] = strconv.FormatUint(incidentWindow, 10)
	}
}

// Tables are a run's derived tables: the rendezvous cost ledger, the
// request fleet and the incident engine. Each is an obs.Tap whose
// TapEvent shares the table's live mutation path.
type Tables struct {
	Ledger    *ledger.Ledger
	Fleet     *obs.Fleet
	Incidents *incident.Engine
}

// NewTables builds empty tables configured from run labels written by
// SetTableLabels. A missing or malformed label leaves its setting zero:
// no mode or policy, lag 0, and the engine's default incident window.
func NewTables(labels map[string]string) Tables {
	lag, _ := strconv.Atoi(labels["lag-window"])
	window, _ := strconv.ParseUint(labels["incident-window"], 10, 64)
	t := Tables{Ledger: ledger.New(), Fleet: obs.NewFleet(), Incidents: incident.New(clock.Cycles(window))}
	t.Ledger.SetRun(labels["lockstep"], labels["policy"], lag)
	t.Fleet.SetRun(labels["lockstep"])
	return t
}

// Tables rebuilds the run's derived tables from the WAL alone: it builds
// them from the meta labels with NewTables, as the live run did, and
// folds the full event stream through them in one pass. The live ledger
// mirrors its cells as events at each region end and before the WAL is
// sealed, the live fleet mirrors every update, and the live incident engine
// tapped the recorder in WAL order, so each rebuilt table equals the live
// one (the incident engine's live-only forensic bundles aside).
func (r *Replay) Tables() Tables {
	t := NewTables(r.Run.Meta.Labels)
	taps := [...]obs.Tap{t.Ledger, t.Fleet, t.Incidents}
	for _, e := range r.Run.Events {
		for _, tap := range taps {
			tap.TapEvent(e)
		}
	}
	return t
}
