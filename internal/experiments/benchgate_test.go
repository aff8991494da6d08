package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smvx/internal/obs"
)

func TestGateBenchPassesIdenticalRun(t *testing.T) {
	base := map[string]float64{
		"ledger.strict.phase.rendezvous.cycles": 100000,
		"ledger.strict.phase.rendezvous.count":  50,
		"ledger.strict.calls":                   100,
		"ledger.strict.allocs_per_call":         1.5,
		"ledger.strict.reconcile_pct":           0.0,
		"ledger.strict.rendezvous_cycles_mean":  2185.6,
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
	base := map[string]float64{"ledger.lag16.reconcile_pct": 0.1}
	fresh := map[string]float64{"ledger.lag16.reconcile_pct": 3.5}
	v := GateBench(base, fresh, DefaultGateRules())
	if len(v) == 0 {
		t.Fatal("reconcile_pct above the 2% ceiling passed the gate")
	}
}

// TestGateBenchThroughputDropFails: the throughput keys that repeat run to
// run gate exactly, so a 1% drop fails; the ones that still move with
// scheduling stay ungated.
func TestGateBenchThroughputDropFails(t *testing.T) {
	for _, key := range []string{"fleet.nginx.strict.c1.rps", "survival.attack.native.rps"} {
		base := map[string]float64{key: 6408}
		fresh := map[string]float64{key: 6408 * 0.99}
		if v := GateBench(base, fresh, DefaultGateRules()); len(v) != 1 || !strings.Contains(v[0], key) {
			t.Errorf("1%% drop in %s: violations = %v, want one naming it", key, v)
		}
	}
	for _, key := range []string{"fleet.nginx.strict.c64.rps", "survival.attack.rollback_strict.rps"} {
		base := map[string]float64{key: 6408}
		fresh := map[string]float64{key: 6408 * 0.99}
		if v := GateBench(base, fresh, DefaultGateRules()); len(v) != 0 {
			t.Errorf("1%% drop in the ungated %s: violations = %v", key, v)
		}
	}
}

func TestGateBenchIgnoresUngatedAndNewMetrics(t *testing.T) {
	base := map[string]float64{"nvariant.n3.overhead_pct": 20}
	fresh := map[string]float64{
		"nvariant.n3.overhead_pct": 66,  // worse, but ungated ratio
		"ledger.brandnew.series":   1e9, // fresh-only: addition
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

// A zero-tolerance rule is exact: a drop fails as surely as a rise. These
// four changes all passed when the gate only flagged increases.
func TestGateBenchExactCountDropFails(t *testing.T) {
	base := map[string]float64{
		"incidents.strict.arg_flip_4.count": 1,
		"fleet.nginx.strict.c1.completed":   64,
		"cve.smvx_detected":                 1,
		"survival.attack.kill_both.pwned":   1,
	}
	fresh := map[string]float64{
		"incidents.strict.arg_flip_4.count": 0,
		"fleet.nginx.strict.c1.completed":   63,
		"cve.smvx_detected":                 0,
		"survival.attack.kill_both.pwned":   0,
	}
	v := GateBench(base, fresh, DefaultGateRules())
	if len(v) != len(base) {
		t.Fatalf("violations = %v, want one per dropped count", v)
	}
	for _, msg := range v {
		if !strings.Contains(msg, "exact") {
			t.Errorf("violation %q does not name an exact rule", msg)
		}
	}
}

// Figure 7's overheads reach the terminal rule, which gates exactly: a
// rise and a fall both fail and name the key.
func TestGateBenchFig7ChangeFails(t *testing.T) {
	base := map[string]float64{"fig7.nginx.smvx_overhead": 2.5771359930232753}
	for _, fv := range []float64{9.9, 2.5} {
		v := GateBench(base, map[string]float64{"fig7.nginx.smvx_overhead": fv}, DefaultGateRules())
		if len(v) != 1 || !strings.Contains(v[0], "fig7.nginx.smvx_overhead") || !strings.Contains(v[0], "exact") {
			t.Errorf("fig7 overhead %v: violations = %v, want one naming the key and the exact rule", fv, v)
		}
	}
}

// table2.clone_us is the one paper number with a band (ROADMAP item 1):
// the scheduling-noise reading passes, a real rise does not.
func TestGateBenchTable2CloneBand(t *testing.T) {
	base := map[string]float64{"table2.clone_us": 9.714285714285714}
	if v := GateBench(base, map[string]float64{"table2.clone_us": 9.81}, DefaultGateRules()); len(v) != 0 {
		t.Errorf("clone_us inside its band violates the gate: %v", v)
	}
	if v := GateBench(base, map[string]float64{"table2.clone_us": 10.5}, DefaultGateRules()); len(v) != 1 {
		t.Errorf("clone_us 8%% over baseline passed the gate: %v", v)
	}
}

// Every ablation key reaches the terminal exact rule.
func TestGateBenchAblationKeysExact(t *testing.T) {
	rules := DefaultGateRules()
	terminal := rules[len(rules)-1]
	m := obs.NewMetrics()
	(&AblationResult{}).RecordMetrics(m)
	keys := m.Snapshot()
	if len(keys) == 0 {
		t.Fatal("the ablations record no metric")
	}
	for key := range keys {
		for i := range rules {
			if rules[i].matches(key) {
				if rules[i].Name != terminal.Name {
					t.Errorf("%s reaches rule %s, want %s", key, rules[i].Name, terminal.Name)
				}
				break
			}
		}
		v := GateBench(map[string]float64{key: 1160784}, map[string]float64{key: 1160785}, rules)
		if len(v) != 1 {
			t.Errorf("%s: a one-unit change passed the gate: %v", key, v)
		}
	}
}
