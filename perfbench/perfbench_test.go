package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json this program must agree
// with: the workloads it runs and the metrics it reports.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// testOps keeps rounds tiny in short mode and at full length otherwise.
func testOps() int {
	if testing.Short() {
		return 2 * attackEvery
	}
	return defaultOps
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := f.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
	}
	if len(f.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(f.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := f.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != "lower" {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %s in %s", i, got, m.name, m.unit)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload at two seeds: every output
// check must pass, and every end-to-end metric must be reported, with its
// unit and a value that is not zero.
func TestWorkloadsEndToEnd(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, seed := range []int64{42, 7} {
			res, err := run(options{workload: w.name, seed: seed, ops: testOps(), dir: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s seed %d: correct=%v attempted=%d failed=%d", w.name, seed, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(f.EndToEnd) {
				t.Errorf("%s seed %d: %d metrics, want %d", w.name, seed, len(res.Metrics), len(f.EndToEnd))
			}
			for _, m := range f.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("%s seed %d: %s = %+v, want a positive value in %s", w.name, seed, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestTracedRun runs the traced run on every workload: the simulated
// metrics must match the untraced rounds', every per-layer metric must be
// reported with its unit, and each layer must do its work where the
// workload table says it does and none where it says it does not.
func TestTracedRun(t *testing.T) {
	f := readBenchmarkFile(t)
	layers := make(map[string]map[string]float64)
	for _, w := range workloads {
		res, err := run(options{workload: w.name, seed: 42, trace: true, ops: testOps(), dir: t.TempDir(), benchtime: time.Millisecond}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
		if len(res.Metrics) != len(f.PerLayer) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(f.PerLayer))
		}
		layers[w.name] = make(map[string]float64)
		for _, m := range f.PerLayer {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: %s = %+v, want a value in %s", w.name, m.Name, got, m.Unit)
			}
			layers[w.name][m.Name] = got.Value
		}
	}
	for _, c := range []struct {
		metric, busy, idle string
	}{
		{"core.invoke.per_req", "nginx-strict", "nginx-native"},
		{"core.intercept.leader.host_ns", "nginx-strict", "nginx-native"},
		{"core.create.cycles", "nginx-pipelined-n3", "nginx-native"},
		{"ledger.rendezvous.count_per_req", "nginx-strict", "nginx-pipelined-n3"},
		{"ledger.barrier.count_per_req", "nginx-pipelined-n3", "nginx-strict"},
		{"ledger.restore.count_per_req", "nginx-rollback-attack", "nginx-strict"},
		{"core.rollbacks", "nginx-rollback-attack", "nginx-strict"},
		{"obs.sink.host_ns", "nginx-rollback-attack", "nginx-strict"},
		{"obs.tap.host_ns", "nginx-rollback-attack", "nginx-pipelined-n3"},
		{"micro.core.vote3.ns_per_op", "nginx-native", ""},
	} {
		if layers[c.busy][c.metric] <= 0 {
			t.Errorf("%s on %s = %v, want work done", c.metric, c.busy, layers[c.busy][c.metric])
		}
		if c.idle != "" && layers[c.idle][c.metric] != 0 {
			t.Errorf("%s on %s = %v, want no work", c.metric, c.idle, layers[c.idle][c.metric])
		}
	}
}

// BenchmarkLayers runs every layer microbenchmark the traced run reports.
func BenchmarkLayers(b *testing.B) {
	for _, mb := range micros {
		b.Run(mb.name, func(b *testing.B) { mb.run(b, b.TempDir()) })
	}
}
