// Command experiments regenerates the paper's evaluation (Section 4):
// every table and figure, printed in paper-style form.
//
// Usage:
//
//	experiments                # run everything
//	experiments -run fig7      # one artifact (-h lists them)
//	experiments -requests 60   # heavier server workloads
//	experiments -run ledger    # strict-vs-pipelined rendezvous cost breakdown
//	experiments -run fleet -fleet-c 1,64,1024                       # requests/sec concurrency sweep
//	experiments -run ablation  # the DESIGN.md §5 design-choice ablations
//	experiments -bench-json fresh.json -gate BENCH_experiments.json # CI perf-regression gate
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"smvx/internal/cli"
	"smvx/internal/core"
	"smvx/internal/experiments"
	"smvx/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// result is what every artifact produces: a paper-style rendering and the
// series it contributes to the benchmark registry.
type result interface {
	String() string
	RecordMetrics(*obs.Metrics)
}

// text is an artifact that renders a table and records no series.
type text string

func (t text) String() string           { return string(t) }
func (text) RecordMetrics(*obs.Metrics) {}

// withBlocks appends extra blocks (the flame summary, forensics reports)
// to an artifact's rendering, one line break apart.
type withBlocks struct {
	result
	blocks []string
}

func (w withBlocks) String() string {
	return strings.Join(append([]string{w.result.String()}, w.blocks...), "\n")
}

func run() error {
	var (
		requests  = flag.Int("requests", 40, "server workload size")
		target    = flag.Uint64("nbench-cycles", 1_500_000, "nbench per-kernel cycle target")
		fleetC    = flag.String("fleet-c", "1,64", "fleet sweep concurrency levels, comma-separated")
		benchJSON = flag.String("bench-json", "", "write metric name -> value JSON here (empty to skip)")
		gate      = flag.String("gate", "", "committed BENCH_experiments.json baseline: fail if any gated metric regresses past its tolerance band")
	)
	var cfg cli.Config
	cfg.Register(flag.CommandLine)
	// The run functions read rt and mode, which exist once flags parse.
	var (
		rt   *cli.Runtime
		mode core.LockstepMode
	)
	// bench is the benchmark registry the -bench-json artifact serialises;
	// it is separate from the flight recorder so a plain `-metrics` run
	// reports experiment results, not recorder internals.
	bench := obs.NewMetrics()
	artifacts := []struct {
		name string
		run  func() (result, error)
	}{
		{"table1", func() (result, error) { return text(experiments.Table1()), nil }},
		{"fig6", func() (result, error) { return experiments.Figure6(*target) }},
		{"fig7", func() (result, error) { return experiments.Figure7(*requests) }},
		{"cpu", func() (result, error) {
			res, err := experiments.CPUCycles(*requests)
			if err != nil {
				return nil, err
			}
			return withBlocks{res, []string{res.FlameNginx}}, nil
		}},
		{"mem", func() (result, error) { return experiments.Memory(10) }},
		{"fig8", func() (result, error) { return experiments.Figure8(*requests) }},
		{"table2", func() (result, error) { return experiments.Table2() }},
		{"fig9", func() (result, error) { return experiments.Figure9(15, []int{10, 30, 60, 20}) }},
		{"cve", func() (result, error) {
			res, err := experiments.CVEObservedOpts(rt.Recorder, rt.MonitorOptions()...)
			if err != nil {
				return nil, err
			}
			if rt.Telemetry == nil && rt.Recorder != nil {
				// When telemetry is live the cve run already traced into
				// the shared recorder; merging it into bench too would
				// double-count once bench folds back into the telemetry
				// registry below. The WAL is still open, so its byte and
				// record counts are published first.
				rt.Blackbox.Publish()
				bench.Merge(rt.Recorder.Metrics())
			}
			out := withBlocks{result: res}
			if cfg.Forensics {
				out.blocks = append(out.blocks, res.Forensics...)
			}
			if cfg.Trace != "" {
				if err := cli.WriteChromeTrace(rt.Recorder, cfg.Trace); err != nil {
					return nil, err
				}
				out.blocks = append(out.blocks, fmt.Sprintf(
					"chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)", cfg.Trace))
			}
			return out, nil
		}},
		{"chaos", func() (result, error) { return experiments.ChaosMode(cfg.EffectiveChaosSeed(), mode) }},
		{"ledger", func() (result, error) { return experiments.LedgerBreakdown() }},
		{"fleet", func() (result, error) {
			levels, err := parseLevels(*fleetC)
			if err != nil {
				return nil, err
			}
			return experiments.FleetSweep(levels)
		}},
		{"incidents", func() (result, error) { return experiments.Incidents(cfg.EffectiveChaosSeed()) }},
		{"survival", func() (result, error) { return experiments.Survival(cfg.EffectiveChaosSeed()) }},
		{"nvariant", func() (result, error) { return experiments.NVariant(cfg.EffectiveChaosSeed()) }},
		{"ablation", func() (result, error) { return experiments.Ablations() }},
	}
	names := []string{"all"}
	for _, a := range artifacts {
		names = append(names, a.name)
	}
	which := flag.String("run", "all", "artifact: "+strings.Join(names, " | "))
	flag.Parse()
	// Load the baseline before any artifact runs: -gate and -bench-json may
	// name the same file, and the artifact write must not race the read.
	var baseline map[string]float64
	if *gate != "" {
		var err error
		if baseline, err = experiments.LoadBench(*gate); err != nil {
			return err
		}
	}
	// The artifacts render their own tables — Finish must not re-emit the
	// forensics block the cve artifact already printed.
	cfg.Quiet = true

	var err error
	if rt, err = cfg.Resolve(map[string]string{"app": "nginx", "artifact": "cve"}); err != nil {
		return err
	}
	if mode, err = core.ParseLockstepMode(cfg.Lockstep); err != nil {
		return err
	}

	ran := false
	for _, a := range artifacts {
		if *which != "all" && *which != a.name {
			continue
		}
		ran = true
		res, err := a.run()
		if err != nil {
			return err
		}
		fmt.Println(res)
		res.RecordMetrics(bench)
	}
	if !ran {
		return fmt.Errorf("unknown artifact %q; want one of %s", *which, strings.Join(names, " "))
	}
	if cfg.Metrics {
		fmt.Println(bench.TableText())
	}
	if rt.Telemetry != nil && rt.Recorder != nil {
		rt.Recorder.Metrics().Merge(bench)
	}
	if err := rt.Finish(); err != nil {
		return err
	}
	if *benchJSON != "" {
		f, err := os.Create(*benchJSON)
		if err != nil {
			return err
		}
		werr := bench.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Printf("metrics written to %s\n", *benchJSON)
	}
	if baseline != nil {
		violations := experiments.GateBench(baseline, bench.Snapshot(), experiments.DefaultGateRules())
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "bench gate:", v)
			}
			return fmt.Errorf("bench gate: %d metric(s) regressed against %s", len(violations), *gate)
		}
		fmt.Printf("bench gate: all gated metrics within tolerance of %s\n", *gate)
	}
	return nil
}

// parseLevels parses the -fleet-c concurrency list.
func parseLevels(s string) ([]int, error) {
	var levels []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-fleet-c: bad concurrency level %q", part)
		}
		levels = append(levels, n)
	}
	return levels, nil
}
