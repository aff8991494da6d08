package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGateBenchPassesIdenticalRun(t *testing.T) {
	base := map[string]float64{
		"ledger.strict.phase.rendezvous.cycles":  100000,
		"ledger.strict.phase.rendezvous.count":   50,
		"ledger.strict.calls":                    100,
		"ledger.strict.allocs_per_call":          1.5,
		"ledger.strict.reconcile_pct":            0.0,
		"pipeline.overhead.strict.reduction_pct": 0,
	}
	if v := GateBench(base, base, DefaultGateRules()); len(v) != 0 {
		t.Fatalf("identical run violates gate: %v", v)
	}
}

// The acceptance demonstration: a 20% cycles regression against a 15%
// band must fail the gate, loudly and attributably.
func TestGateBenchFailsOnInjectedRegression(t *testing.T) {
	base := map[string]float64{"ledger.lag16.phase.enqueue.cycles": 100000}
	fresh := map[string]float64{"ledger.lag16.phase.enqueue.cycles": 120000}
	v := GateBench(base, fresh, DefaultGateRules())
	if len(v) != 1 {
		t.Fatalf("violations = %v, want exactly one", v)
	}
	if !strings.Contains(v[0], "ledger.lag16.phase.enqueue.cycles") {
		t.Fatalf("violation does not name the metric: %s", v[0])
	}
}

func TestGateBenchWithinTolerancePasses(t *testing.T) {
	base := map[string]float64{"ledger.strict.phase.libc.cycles": 100000}
	fresh := map[string]float64{"ledger.strict.phase.libc.cycles": 110000}
	if v := GateBench(base, fresh, DefaultGateRules()); len(v) != 0 {
		t.Fatalf("10%% drift inside 15%% band violates gate: %v", v)
	}
}

func TestGateBenchMissingMetricFails(t *testing.T) {
	base := map[string]float64{"ledger.strict.calls": 100}
	v := GateBench(base, map[string]float64{}, DefaultGateRules())
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("violations = %v, want one missing-metric failure", v)
	}
}

func TestGateBenchStructuralCountExact(t *testing.T) {
	base := map[string]float64{"ledger.strict.phase.wait.count": 50}
	fresh := map[string]float64{"ledger.strict.phase.wait.count": 51}
	if v := GateBench(base, fresh, DefaultGateRules()); len(v) != 1 {
		t.Fatalf("count drift passed the zero-tolerance rule: %v", v)
	}
}

func TestGateBenchReconcileCeiling(t *testing.T) {
	base := map[string]float64{"ledger.lag4.reconcile_pct": 0.1}
	fresh := map[string]float64{"ledger.lag4.reconcile_pct": 3.5}
	v := GateBench(base, fresh, DefaultGateRules())
	if len(v) == 0 {
		t.Fatal("reconcile_pct above the 2% ceiling passed the gate")
	}
}

func TestGateBenchIgnoresUngatedAndNewMetrics(t *testing.T) {
	base := map[string]float64{"pipeline.overhead.lag16.reduction_pct": 66}
	fresh := map[string]float64{
		"pipeline.overhead.lag16.reduction_pct": 20,  // worse, but ungated ratio
		"ledger.brandnew.series":                1e9, // fresh-only: addition
	}
	if v := GateBench(base, fresh, DefaultGateRules()); len(v) != 0 {
		t.Fatalf("ungated/new metrics raised violations: %v", v)
	}
}

func TestLoadBenchRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	body := "{\n  \"a.cycles\": 123,\n  \"b.pct\": 4.5\n}\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if m["a.cycles"] != 123 || m["b.pct"] != 4.5 {
		t.Fatalf("loaded %v", m)
	}
	if _, err := LoadBench(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("LoadBench of a missing file succeeded")
	}
}
