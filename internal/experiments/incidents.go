package experiments

import (
	"fmt"
	"strings"

	"smvx/internal/core"
	"smvx/internal/obs"
)

// The incidents suite measures the incident plane end to end: every chaos
// fault class runs under both lockstep modes, and the artifact reports —
// per cell — how many incidents opened, what the root-cause attribution
// says, and the virtual-cycle latency from fault injection to first
// detection. The matrix doubles as the acceptance harness: each fault class
// must open exactly ONE incident whose root cause names the injected
// fault's libc-call ordinal, and the control cell must open none. The
// leader-continue policy makes the run outlive the fault, so the table
// shows containment, not termination.

// IncidentsResult is the full fault x mode detection matrix.
type IncidentsResult struct {
	Seed  int64
	Cells []Cell
}

// incidentScenario is one (fault, mode) cell of the detection matrix.
func incidentScenario(f faultPlan, mode core.LockstepMode) Scenario {
	s := baseScenario.withPlan(f)
	s.Policy, s.Mode = core.PolicyLeaderContinue, mode
	return s
}

// incidentsSlice is the fault x lockstep-mode matrix.
func incidentsSlice() []Scenario {
	var scs []Scenario
	for _, mode := range lockstepModes {
		for _, f := range chaosFaults {
			scs = append(scs, incidentScenario(f, mode))
		}
	}
	return scs
}

// validateIncident enforces the detection contract one cell must satisfy.
func validateIncident(c *Cell) error {
	if len(c.Faults) == 0 { // control cell: no faults, no incidents
		if c.Incidents != 0 {
			return fmt.Errorf("incidents %s/%s: control cell opened %d incidents", c.Fault, c.Mode, c.Incidents)
		}
		return nil
	}
	if c.Incidents != 1 {
		return fmt.Errorf("incidents %s/%s: %d incidents, want exactly 1", c.Fault, c.Mode, c.Incidents)
	}
	if want := c.Faults[0].Call; c.RootOrdinal != want {
		return fmt.Errorf("incidents %s/%s: root cause %q at call %d, want the injected ordinal %d",
			c.Fault, c.Mode, c.RootCause, c.RootOrdinal, want)
	}
	if !strings.HasPrefix(c.RootCause, "fault-injected") {
		return fmt.Errorf("incidents %s/%s: root cause %q, want the injected fault", c.Fault, c.Mode, c.RootCause)
	}
	if !c.DetectOK {
		return fmt.Errorf("incidents %s/%s: no detection event followed the fault", c.Fault, c.Mode)
	}
	return nil
}

// Incidents runs the fault x lockstep-mode detection matrix. Every cell is
// an independent deterministic simulation; a dead leader or a violated
// detection contract (wrong incident count, wrong root ordinal, missing
// detection) is an error, so the artifact doubles as an acceptance gate.
func Incidents(seed int64) (*IncidentsResult, error) {
	cells, err := runSlice(seed, incidentsSlice())
	if err == nil {
		err = mustSurvive(cells)
	}
	if err != nil {
		return nil, fmt.Errorf("incidents: %w", err)
	}
	for i := range cells {
		if err := validateIncident(&cells[i]); err != nil {
			return nil, err
		}
	}
	return &IncidentsResult{Seed: seed, Cells: cells}, nil
}

// String renders the detection-latency matrix plus per-cell detail.
func (r *IncidentsResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sMVX incident detection matrix (fault x lockstep mode), seed %d\n", r.Seed)
	fmt.Fprintf(&b, "correlation window %d cycles, rendezvous deadline %d cycles, leader-continue policy\n\n",
		incidentExpWindow, cellDeadline)
	fmt.Fprintf(&b, "%-18s %-10s %-9s %-9s %-14s %-10s %s\n",
		"fault", "mode", "incidents", "severity", "detect cycles", "anomalies", "root cause")
	for i := range r.Cells {
		c := &r.Cells[i]
		det := "-"
		if c.DetectOK {
			det = fmt.Sprintf("%d", c.DetectCycles)
		}
		fmt.Fprintf(&b, "%-18s %-10s %-9d %-9s %-14s %-10d %s\n",
			c.Fault, c.Mode, c.Incidents, orDashStr(c.Severity), det, c.Anomalies, orDashStr(c.RootCause))
	}
	return b.String()
}

// orDashStr renders an empty cell value as "-".
func orDashStr(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// RecordMetrics folds the matrix into the benchmark registry. Counts gate
// exactly; detection latencies are virtual-cycle measurements and gate
// with a tolerance band.
func (r *IncidentsResult) RecordMetrics(bench *obs.Metrics) {
	var totalAnomalies uint64
	for i := range r.Cells {
		c := &r.Cells[i]
		key := "incidents." + c.Mode.String() + "." + obs.SanitizeName(c.Fault)
		bench.SetGauge(key+".count", float64(c.Incidents))
		if c.DetectOK {
			bench.SetGauge(key+".detect_cycles", float64(c.DetectCycles))
		}
		totalAnomalies += c.Anomalies
	}
	bench.SetGauge("incidents.anomaly_fired.total", float64(totalAnomalies))
	bench.SetGauge("incidents.window_cycles", float64(incidentExpWindow))
}
