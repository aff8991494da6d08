package experiments

import (
	"fmt"
	"strings"

	"smvx/internal/apps/lighttpd"
	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/obs"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
)

// AblationResult holds the design-choice ablations of DESIGN.md §5 that no
// paper artifact already shows. (Lockstep granularity is Figure 7's sMVX
// vs ReMon columns; the choice of protected region is Figure 8.)
type AblationResult struct {
	// FullScanUS and HintedScanUS are Table 2's .data/.bss pointer scan on
	// lighttpd without and with the static-analysis scan hints that stand
	// in for the paper's alias analysis (Section 3.4).
	FullScanUS, HintedScanUS float64
	// PivotOnCycles and PivotOffCycles are the wall cycles of one protected
	// region making 200 libc calls, with and without the trampoline's
	// stack pivot: the per-call price of the MPK-safe call gate.
	PivotOnCycles, PivotOffCycles clock.Cycles
	// FreshWallCycles and ReuseWallCycles are nginx's wall cycles over 10
	// requests with per-request protection, creating a fresh follower per
	// region versus keeping one refreshed off the critical path (the
	// Section 5 mitigation).
	FreshWallCycles, ReuseWallCycles clock.Cycles
}

// Ablations runs the three ablations. Variant reuse must undercut fresh
// creation; the run fails otherwise.
func Ablations() (*AblationResult, error) {
	res := &AblationResult{}
	var err error
	if res.FullScanUS, err = dataScanUS(); err != nil {
		return nil, err
	}
	if res.HintedScanUS, err = dataScanUS(core.WithScanHints("srv_listen_fd", "srv_epoll_fd", "srv_docroot")); err != nil {
		return nil, err
	}
	if res.PivotOnCycles, err = trampolineCycles(); err != nil {
		return nil, err
	}
	if res.PivotOffCycles, err = trampolineCycles(core.WithoutSafeStack()); err != nil {
		return nil, err
	}
	if res.FreshWallCycles, err = perRequestWallCycles(); err != nil {
		return nil, err
	}
	if res.ReuseWallCycles, err = perRequestWallCycles(core.WithVariantReuse()); err != nil {
		return nil, err
	}
	if res.ReuseWallCycles >= res.FreshWallCycles {
		return nil, fmt.Errorf("ablation: variant reuse (%d wall cycles) does not undercut fresh creation (%d)",
			res.ReuseWallCycles, res.FreshWallCycles)
	}
	return res, nil
}

// dataScanUS is Table 2's data-scan cost of one lighttpd region under a
// monitor built with opts.
func dataScanUS(opts ...core.Option) (float64, error) {
	r, err := Start(Launch{Server: lighttpd.NewServer(lighttpd.Config{
		Port: Port, MaxRequests: 1, Protect: "server_main_loop",
	}), Mode: SMVX, Seed: Seed, Monitor: monitor(opts...)})
	if err != nil {
		return 0, err
	}
	r.AB(1)
	if err := r.Wait(); err != nil {
		return 0, fmt.Errorf("ablation: %w", err)
	}
	return r.Mon.LastCreation().DataScanCycles.Micros(), nil
}

// perRequestWallCycles is nginx's wall time over a 10-request ab workload
// with ngx_http_process_request_line protected by a monitor built with
// opts.
func perRequestWallCycles(opts ...core.Option) (clock.Cycles, error) {
	r, err := Start(Launch{Server: nginx.NewServer(nginx.Config{
		Port: Port, MaxRequests: 10, Protect: "ngx_http_process_request_line",
	}), Mode: SMVX, Seed: Seed, Monitor: monitor(opts...)})
	if err != nil {
		return 0, err
	}
	r.AB(10)
	if err := r.Wait(); err != nil {
		return 0, fmt.Errorf("ablation: %w", err)
	}
	return r.Env.Wall.Cycles(), nil
}

// trampolineCycles runs one protected region of 200 gettimeofday calls in
// a small synthetic program under a monitor built with opts and returns
// the wall cycles from before the leader thread exists to region end.
func trampolineCycles(opts ...core.Option) (clock.Cycles, error) {
	const seed = 1
	img := image.NewBuilder("abl", 0x400000).
		AddFunc("main", 64).
		AddFunc("loop", 128).
		AddBSS("g", 256).
		NeedLibc("gettimeofday", "malloc", "free").
		Build()
	prog := machine.NewProgram(img)
	prog.MustDefine("loop", func(t *machine.Thread, _ []uint64) uint64 {
		g := t.Global("g")
		for i := 0; i < 200; i++ {
			t.Libc("gettimeofday", uint64(g), 0)
		}
		return 0
	})
	env, err := boot.NewEnv(kernel.New(clock.DefaultCosts(), seed), prog, boot.WithSeed(seed))
	if err != nil {
		return 0, err
	}
	mon := core.New(env.Machine, env.LibC, append([]core.Option{core.WithSeed(seed)}, opts...)...)
	before := env.Wall.Cycles()
	th, err := env.Machine.NewThread("smvx-leader", 0)
	if err != nil {
		return 0, err
	}
	if err := mon.Init(th); err != nil {
		return 0, err
	}
	var startErr error
	err = th.Run(func(t *machine.Thread) {
		if startErr = mon.Start(t, "loop"); startErr != nil {
			return
		}
		t.Call("loop")
		_ = mon.End(t)
	})
	if startErr != nil {
		return 0, startErr
	}
	if err != nil {
		return 0, err
	}
	return env.Wall.Cycles() - before, nil
}

// String renders the ablations.
func (r *AblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablations (DESIGN.md §5)\n")
	fmt.Fprintf(&b, "%-44s %14s %14s\n", "design choice", "without", "with")
	fmt.Fprintf(&b, "%-44s %12.2fus %12.5fus\n", "pointer-scan hints (lighttpd .data/.bss scan)", r.FullScanUS, r.HintedScanUS)
	fmt.Fprintf(&b, "%-44s %14d %14d\n", "trampoline stack pivot (wall cycles)", r.PivotOffCycles, r.PivotOnCycles)
	fmt.Fprintf(&b, "%-44s %14d %14d\n", "variant reuse (nginx wall cycles)", r.FreshWallCycles, r.ReuseWallCycles)
	return b.String()
}

// RecordMetrics writes the ablations into m.
func (r *AblationResult) RecordMetrics(m *obs.Metrics) {
	m.SetGauge("ablation.scan_hints.full_us", r.FullScanUS)
	m.SetGauge("ablation.scan_hints.hinted_us", r.HintedScanUS)
	m.SetGauge("ablation.trampoline.pivot_on_cycles", float64(r.PivotOnCycles))
	m.SetGauge("ablation.trampoline.pivot_off_cycles", float64(r.PivotOffCycles))
	m.SetGauge("ablation.variant_reuse.fresh_wall_cycles", float64(r.FreshWallCycles))
	m.SetGauge("ablation.variant_reuse.reuse_wall_cycles", float64(r.ReuseWallCycles))
}
