package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// The bench gate turns the committed BENCH_experiments.json from a record
// into a contract: CI re-runs every experiment, loads the committed baseline,
// and fails the build when a gated metric moves. The simulation's virtual
// clock makes most series deterministic, so a metric gates exactly unless a
// named rule says otherwise. The exceptions are bands: wait-phase cycles
// depend on real goroutine interleaving and the allocation probe reads a
// process-global runtime counter (ROADMAP item 1), so each band is a named
// rule and the list can only shrink.

// GateRule matches a family of metric names and sets its tolerance band.
// Rules are first-match-wins, so put specific rules before broad ones.
type GateRule struct {
	// Name labels the rule in violation messages.
	Name string
	// Suffix and Contains select metrics (either may be empty; a rule with
	// both empty matches everything — the usual terminal rule).
	Suffix   string
	Contains string
	// Skip exempts matched metrics from gating entirely.
	Skip bool
	// Tolerance is the allowed relative increase of fresh over baseline
	// (0.10 = +10%). Regressions are increases: every banded series is
	// lower-is-better. A rule with zero Tolerance and zero Slack is exact:
	// any difference fails, in either direction.
	Tolerance float64
	// Slack is an absolute additive allowance on top of the relative band,
	// for small-valued noisy series where a ratio alone is too strict.
	Slack float64
	// Max, when positive, is an absolute ceiling on the fresh value,
	// checked in addition to the relative band.
	Max float64
}

func (r GateRule) matches(key string) bool {
	if r.Suffix != "" && !strings.HasSuffix(key, r.Suffix) {
		return false
	}
	if r.Contains != "" && !strings.Contains(key, r.Contains) {
		return false
	}
	return true
}

// DefaultGateRules is the band set CI applies to the committed
// BENCH_experiments.json baseline.
func DefaultGateRules() []GateRule {
	return []GateRule{
		// The ledger must keep reconciling with the rendezvous histogram:
		// this is the acceptance bound, absolute, regardless of baseline.
		{Name: "reconcile", Suffix: ".reconcile_pct", Max: 2.0, Tolerance: 1.0, Slack: 1.0},
		// Fleet sweep: the closed-loop design makes completed counts exact
		// (every sent request is served before the stop flag trips), so any
		// drift there is a dropped request. Serial cost per request and the
		// median are the real perf contract; tail percentiles at C>1 measure
		// queueing delay set by host goroutine scheduling (observed 2x
		// run-to-run) so they only gate order-of-magnitude blowups, and the
		// single worst request is pure scheduling artifact — ungated.
		// Throughput is higher-is-better, so where it repeats it gates
		// exactly and a drop fails: each one-client cell's rps and
		// pct_native, and native's c64 pct_native (100 by construction).
		// The other c64 rps and pct_native keys depend on which client's
		// bytes reach the server first (ROADMAP item 1c) and stay ungated.
		{Name: "fleet-served", Contains: "fleet.", Suffix: ".completed", Tolerance: 0},
		{Name: "fleet-throughput", Contains: "fleet.", Suffix: ".cycles_per_request", Tolerance: 0.35, Slack: 20000},
		{Name: "fleet-p50", Contains: "fleet.", Suffix: ".p50_cycles", Tolerance: 0.5, Slack: 50000},
		{Name: "fleet-max", Contains: "fleet.", Suffix: ".max_cycles", Skip: true},
		{Name: "fleet-tail", Contains: "fleet.", Suffix: "_cycles", Tolerance: 3.0, Slack: 100000},
		{Name: "fleet-c1-throughput", Contains: ".c1.", Tolerance: 0},
		{Name: "fleet-native-pct", Suffix: ".native.c64.pct_native", Tolerance: 0},
		{Name: "fleet-ungated", Contains: "fleet.", Skip: true},
		// Incident matrix: the per-cell incident count is the detection
		// contract (the artifact itself also asserts exactly one per fault)
		// and gates exactly; detection latency is a virtual-cycle delta with
		// interleaving noise, so it only gates doublings. The anomaly firing
		// total and window constant stay ungated.
		{Name: "incident-count", Contains: "incidents.", Suffix: ".count", Tolerance: 0},
		{Name: "incident-latency", Contains: "incidents.", Suffix: ".detect_cycles", Tolerance: 1.0, Slack: 100000},
		{Name: "incidents-ungated", Contains: "incidents.", Skip: true},
		// Survival benchmark: integrity/detection series are recorded as
		// lower-is-better violation counts (undetected, benign_failed,
		// pwned, leader_only, worker_dead) with deterministic baselines, so
		// they gate exactly. Throughput gates exactly where it repeats (the
		// native and kill-both rows), so a drop fails; the rollback rows'
		// rps and pct_native move with goroutine scheduling (ROADMAP item
		// 1) and stay ungated. Cycle costs get a wide band, and snapshot
		// counts a small absolute slack for cadence jitter against the
		// region clock.
		{Name: "survival-rps", Contains: "survival.attack.rollback_", Suffix: ".rps", Skip: true},
		{Name: "survival-pct", Contains: "survival.attack.rollback_", Suffix: ".pct_native", Skip: true},
		{Name: "survival-cycles", Contains: "survival.", Suffix: "_cycles", Tolerance: 0.5, Slack: 200000},
		{Name: "survival-snapshots", Contains: "survival.", Suffix: ".snapshots", Tolerance: 0, Slack: 2},
		{Name: "survival-exact", Contains: "survival.", Tolerance: 0},
		// N-variant matrix: detection, survival, and outvote counts are
		// deterministic votes over deterministic records, so they gate
		// exactly. The clean-run cycle cost falls through to the standard
		// cycle band below; the derived overhead percentage is bounded by
		// its gated inputs and stays ungated.
		{Name: "nvariant-overhead", Contains: "nvariant.", Suffix: ".overhead_pct", Skip: true},
		{Name: "nvariant-cycles", Contains: "nvariant.", Suffix: ".cycles", Tolerance: 0.15, Slack: 1000},
		{Name: "nvariant-exact", Contains: "nvariant.", Tolerance: 0},
		// Structural counts are deterministic — any drift is a real change
		// in how many times a phase runs.
		{Name: "phase-count", Contains: ".phase.", Suffix: ".count", Tolerance: 0},
		{Name: "calls", Suffix: ".calls", Tolerance: 0},
		// Heap traffic per call: the probe is process-global and GC-timing
		// sensitive, so allow generous noise but catch a new per-call
		// allocation creeping into the hot path.
		{Name: "allocs", Suffix: ".allocs_per_call", Tolerance: 0.5, Slack: 2.0},
		// Wait-phase cycles include real scheduling variance.
		{Name: "wait-cycles", Contains: ".phase.wait.", Tolerance: 0.35, Slack: 5000},
		// Everything else cycle-shaped: the perf contract proper.
		{Name: "cycles", Suffix: ".cycles", Tolerance: 0.15, Slack: 1000},
		{Name: "cycles-total", Suffix: ".cycles_total", Tolerance: 0.15, Slack: 1000},
		{Name: "rendezvous-mean", Suffix: ".rendezvous_cycles_mean", Tolerance: 0.15, Slack: 50},
		// Table 2's clone phase reads the process-wide counter while the
		// followers launch, so it moves with scheduling (9.81us once in 12
		// runs against 9.71us; ROADMAP item 1).
		{Name: "table2-clone", Suffix: "table2.clone_us", Tolerance: 0.02},
		// Everything else — the paper artifacts (fig6-fig9, table2, cpu,
		// mem), cve, chaos and the ablations — is virtual time or a count
		// of deterministic events, and gates exactly.
		{Name: "default"},
	}
}

// LoadBench reads a BENCH_*.json artifact (flat metric name → value map,
// the obs.Metrics WriteJSON format).
func LoadBench(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("bench baseline %s: %w", path, err)
	}
	return out, nil
}

// GateBench compares fresh against base under rules and returns one
// violation message per gated metric that regressed, changed under an
// exact rule, or vanished. An empty slice is a pass. Metrics present only
// in fresh are ignored — new series are additions, not regressions.
func GateBench(base, fresh map[string]float64, rules []GateRule) []string {
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var violations []string
	for _, key := range keys {
		var rule *GateRule
		for i := range rules {
			if rules[i].matches(key) {
				rule = &rules[i]
				break
			}
		}
		if rule == nil || rule.Skip {
			continue
		}
		bv := base[key]
		fv, ok := fresh[key]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: baseline metric missing from fresh run (rule %s)", key, rule.Name))
			continue
		}
		limit := bv*(1+rule.Tolerance) + rule.Slack
		switch {
		case rule.Tolerance == 0 && rule.Slack == 0:
			if fv != bv {
				violations = append(violations,
					fmt.Sprintf("%s: %.10g differs from baseline %.10g (rule %s, exact)", key, fv, bv, rule.Name))
			}
		case fv > limit:
			violations = append(violations,
				fmt.Sprintf("%s: %.4g exceeds baseline %.4g by more than %+.0f%%+%.4g (rule %s)",
					key, fv, bv, rule.Tolerance*100, rule.Slack, rule.Name))
		}
		if rule.Max > 0 && fv > rule.Max {
			violations = append(violations,
				fmt.Sprintf("%s: %.4g exceeds absolute ceiling %.4g (rule %s)", key, fv, rule.Max, rule.Name))
		}
	}
	return violations
}
