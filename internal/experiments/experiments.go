// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4) against the simulated substrate. Each driver
// builds fresh kernels and processes, runs the workload, and returns a
// structured result with a paper-style text rendering.
//
// Absolute numbers are not expected to match the paper (the substrate is a
// calibrated simulator, not the authors' Xeon testbed); the *shape* is:
// who wins, by roughly what factor, and where the crossovers fall.
// EXPERIMENTS.md records paper-vs-measured for every row.
package experiments

import (
	"bytes"
	"fmt"

	"smvx/internal/apps/lighttpd"
	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
)

// Seed is the deterministic seed all experiments run under.
const Seed = 42

// Page4K is the 4KiB page every server test serves, matching the paper's
// workload ("the page size that we were serving ... was 4KB in length").
var Page4K = bytes.Repeat([]byte("smvx-eval-page-4k---"), 4096/20+1)[:4096]

// nginxHandle bundles a booted nginx with its driver pieces.
type nginxHandle struct {
	srv    *nginx.Server
	env    *boot.Env
	client *kernel.Process
	mon    *core.Monitor
	done   chan error
}

// startNginx boots and launches nginx; withMon attaches an sMVX monitor.
func startNginx(cfg nginx.Config, withMon bool, opts ...boot.Option) (*nginxHandle, error) {
	return startNginxOpts(cfg, withMon, nil, opts...)
}

// startNginxOpts is startNginx with extra monitor options layered on top of
// the defaults — how the CVE scenario re-runs under a containment policy or
// pipelined lockstep without its own boot path.
func startNginxOpts(cfg nginx.Config, withMon bool, monOpts []core.Option, opts ...boot.Option) (*nginxHandle, error) {
	k := kernel.New(clock.DefaultCosts(), Seed)
	srv := nginx.NewServer(cfg)
	env, err := boot.NewEnv(k, srv.Program(), append([]boot.Option{boot.WithSeed(Seed)}, opts...)...)
	if err != nil {
		return nil, err
	}
	k.FS().WriteFile("/var/www/index.html", Page4K)
	h := &nginxHandle{srv: srv, env: env, client: k.NewProcess(clock.NewCounter())}
	if withMon {
		h.mon = core.New(env.Machine, env.LibC,
			append([]core.Option{core.WithSeed(Seed), core.WithRecorder(env.Obs)}, monOpts...)...)
		srv.SetMVX(h.mon)
	}
	th, err := env.MainThread()
	if err != nil {
		return nil, err
	}
	h.done = make(chan error, 1)
	go func() { h.done <- srv.Run(th) }()
	return h, nil
}

// lighttpdHandle bundles a booted lighttpd.
type lighttpdHandle struct {
	srv    *lighttpd.Server
	env    *boot.Env
	client *kernel.Process
	mon    *core.Monitor
	done   chan error
}

func startLighttpd(cfg lighttpd.Config, withMon bool, opts ...boot.Option) (*lighttpdHandle, error) {
	return startLighttpdOpts(cfg, withMon, nil, opts...)
}

// startLighttpdOpts mirrors startNginxOpts for the lighttpd scenarios.
func startLighttpdOpts(cfg lighttpd.Config, withMon bool, monOpts []core.Option, opts ...boot.Option) (*lighttpdHandle, error) {
	k := kernel.New(clock.DefaultCosts(), Seed)
	srv := lighttpd.NewServer(cfg)
	env, err := boot.NewEnv(k, srv.Program(), append([]boot.Option{boot.WithSeed(Seed)}, opts...)...)
	if err != nil {
		return nil, err
	}
	k.FS().WriteFile("/srv/www/index.html", Page4K)
	h := &lighttpdHandle{srv: srv, env: env, client: k.NewProcess(clock.NewCounter())}
	if withMon {
		h.mon = core.New(env.Machine, env.LibC,
			append([]core.Option{core.WithSeed(Seed), core.WithRecorder(env.Obs)}, monOpts...)...)
		srv.SetMVX(h.mon)
	}
	th, err := env.MainThread()
	if err != nil {
		return nil, err
	}
	h.done = make(chan error, 1)
	go func() { h.done <- srv.Run(th) }()
	return h, nil
}

// pct renders a ratio-1 as a percentage string.
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
