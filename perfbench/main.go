// Command perfbench is the repository's benchmark: nginx serving the
// paper's 4 KB page to one closed-loop client under four configurations,
// measured both in host cost (what the Go simulator spends) and in
// simulated cost (virtual cycles, the paper's currency). See README.md.
//
//	perfbench --workload nginx-strict --seed 42 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: whether every
// output check passed, the operations attempted and failed, and the
// metrics. --trace 0 reports the end-to-end metrics; --trace 1 reports
// the per-layer metrics, prints them with their tags to standard error,
// and writes the spans it recorded under --dir.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runTimeout ends a run that hangs: the benchmark must exit well inside
// the harness's three-minute limit.
const runTimeout = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir holds the WAL directories, microbenchmark scratch files and the
	// span file.
	dir string
	// ops is the measured operations per round (defaultOps outside tests).
	ops int
	// benchtime is how long each microbenchmark runs.
	benchtime time.Duration
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", "workload to run")
	fs.Int64Var(&opt.seed, "seed", 42, "seed for the boot and monitor seeds and the attack positions")
	fs.Float64Var(&opt.seconds, "seconds", 10, "how long to measure; rounds start until this much time has passed")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	fs.StringVar(&opt.dir, "dir", ".bench_build", "scratch directory for WAL segments and the span file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	opt.trace = *trace == 1
	opt.ops = defaultOps
	opt.benchtime = 100 * time.Millisecond

	time.AfterFunc(runTimeout, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run timed out")
		os.Exit(3)
	})
	res, err := run(opt, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run measures one workload: rounds until opt.seconds have passed, each a
// fresh boot serving the same operations. Reported values are medians over
// rounds. With tracing, untraced and traced rounds alternate: the untraced
// ones give the reference the traced ones are held against.
func run(opt options, log io.Writer) (*result, error) {
	w, err := findWorkload(opt.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	var plain, traced []*round
	var firstTracer *tracer
	probe := newSpeedProbe()
	speed := probe.measure(probeTime)
	for i := 0; ; i++ {
		var tr *tracer
		if opt.trace && i%2 == 1 {
			tr = newTracer()
		}
		rd, err := runRound(w, opt.seed, opt.ops, opt.dir, tr)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, i, err)
		}
		after := probe.measure(probeTime)
		rd.speed = (speed + after) / 2
		speed = after
		if tr != nil {
			traced = append(traced, rd)
			if firstTracer == nil {
				firstTracer = tr
			}
		} else {
			plain = append(plain, rd)
		}
		if time.Now().After(deadline) && (!opt.trace || len(traced) > 0) {
			break
		}
	}

	res := &result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, rd := range append(append([]*round(nil), plain...), traced...) {
		res.Attempted += rd.attempted
		res.Failed += rd.failed
		for _, p := range rd.problems {
			res.Correct = false
			fmt.Fprintf(log, "%s: check failed: %s\n", w.name, p)
		}
	}
	res.Correct = res.Correct && res.Failed == 0

	e2e := endToEndValues(plain)
	if !opt.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
		}
		fmt.Fprintf(log, "%s seed %d: %d rounds of %d ops, host speed %.0f (reference %.0f), unscaled host_rps by round:",
			w.name, opt.seed, len(plain), opt.ops, medianOf(plain, func(rd *round) float64 { return rd.speed }), referenceSpeed)
		for _, rd := range plain {
			fmt.Fprintf(log, " %.0f", hostRPS(rd))
		}
		fmt.Fprintln(log)
		return res, nil
	}

	// Tracing may cost host time but never cycles: the traced rounds must
	// reproduce the untraced rounds' simulated metrics within their bounds.
	tracedE2E := endToEndValues(traced)
	for _, m := range endToEnd {
		if !strings.HasPrefix(m.name, "sim_") {
			continue
		}
		if d := relDiff(tracedE2E[m.name], e2e[m.name]); d > m.bound {
			res.Correct = false
			fmt.Fprintf(log, "%s: traced %s = %.1f, untraced %.1f: off by %.2f%%, bound %.0f%%\n",
				w.name, m.name, tracedE2E[m.name], e2e[m.name], 100*d, 100*m.bound)
		}
	}

	layers := make(map[string]float64)
	for _, lm := range layerMetrics {
		layers[lm.name] = medianOf(traced, func(rd *round) float64 { return rd.layer[lm.name] })
	}
	// The Go runtime's numbers come from the untraced rounds: the tracer's
	// own allocations would otherwise show as the program's.
	layers["go.gc.per_kreq"] = medianOf(plain, func(rd *round) float64 { return per(1000*float64(rd.gcs), rd.served) })
	layers["go.gc.pause_us_per_req"] = medianOf(plain, func(rd *round) float64 { return per(float64(rd.gcPause)/1e3, rd.served) })
	layers["go.gc.cpu_frac"] = medianOf(plain, func(rd *round) float64 { return rd.gcCPU })
	if t := tracedE2E["host_rps"]; t > 0 {
		layers["trace.overhead_frac"] = e2e["host_rps"]/t - 1
	}
	mv, err := runMicros(opt.dir, opt.benchtime)
	if err != nil {
		return nil, err
	}
	for k, v := range mv {
		layers[k] = v
	}

	fmt.Fprintf(log, "%s seed %d: %d untraced and %d traced rounds of %d ops\n",
		w.name, opt.seed, len(plain), len(traced), opt.ops)
	fmt.Fprintf(log, "%-40s %14s %-16s %-45s %s\n", "per-layer metric", "value", "unit", "should move", "does the work in -> no change on")
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metricValue{Value: layers[lm.name], Unit: lm.unit}
		fmt.Fprintf(log, "%-40s %14.3f %-16s %-45s %s\n", lm.name, layers[lm.name], lm.unit, lm.moves, lm.works)
	}
	path := filepath.Join(opt.dir, "trace", w.name+".spans.json")
	if err := firstTracer.write(path, map[string]any{"workload": w.name, "seed": opt.seed, "ops": opt.ops}); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "spans of the first traced round written to %s\n", path)
	return res, nil
}

// endToEndValues takes the median of the end-to-end metrics over rounds.
// Host times are scaled to the reference speed with each round's reading
// of the speed probe, so a machine that runs faster or slower for a while
// does not show as a change of the program.
func endToEndValues(rounds []*round) map[string]float64 {
	v := map[string]float64{
		"host_rps":              medianOf(rounds, func(rd *round) float64 { return hostRPS(rd) * referenceSpeed / rd.speed }),
		"host_allocs_per_req":   medianOf(rounds, func(rd *round) float64 { return per(float64(rd.mallocs), rd.served) }),
		"host_alloc_kb_per_req": medianOf(rounds, func(rd *round) float64 { return per(float64(rd.allocBytes)/1024, rd.served) }),
		"host_heap_mb":          medianOf(rounds, func(rd *round) float64 { return float64(rd.heapBytes) / (1 << 20) }),
		"setup_s":               medianOf(rounds, func(rd *round) float64 { return rd.setup.Seconds() * rd.speed / referenceSpeed }),
	}
	// A failure anywhere counts, so ok_frac is over every operation rather
	// than a median over rounds.
	var attempted, failed int
	for _, rd := range rounds {
		attempted += rd.attempted
		failed += rd.failed
	}
	v["ok_frac"] = per(float64(attempted-failed), attempted)
	for _, m := range endToEnd {
		if strings.HasPrefix(m.name, "sim_") {
			v[m.name] = medianOf(rounds, func(rd *round) float64 { return rd.sim[m.name] })
		}
	}
	return v
}

// hostRPS is a round's unscaled host throughput.
func hostRPS(rd *round) float64 { return float64(rd.served) / rd.host.Seconds() }

func medianOf(rounds []*round, f func(*round) float64) float64 {
	xs := make([]float64, 0, len(rounds))
	for _, rd := range rounds {
		if x := f(rd); !math.IsNaN(x) && !math.IsInf(x, 0) {
			xs = append(xs, x)
		}
	}
	return median(xs)
}

// relDiff is |a-b| as a share of b.
func relDiff(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}
