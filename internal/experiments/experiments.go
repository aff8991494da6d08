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
	"errors"
	"fmt"

	"smvx/internal/apps/lighttpd"
	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/workload"
)

// Seed is the deterministic seed all experiments run under.
const Seed = 42

// Page4K is the 4KiB page every server test serves, matching the paper's
// workload ("the page size that we were serving ... was 4KB in length").
var Page4K = bytes.Repeat([]byte("smvx-eval-page-4k---"), 4096/20+1)[:4096]

// Server is one of the evaluation's HTTP servers: *nginx.Server or
// *lighttpd.Server, configured to listen on Port.
type Server interface {
	Program() *machine.Program
	SetMVX(machine.MVX)
	Run(*machine.Thread) error
}

// The execution modes, spelled as cmd/smvx's -mode values.
const (
	// Vanilla runs the server unprotected.
	Vanilla = "vanilla"
	// SMVX runs it under the sMVX monitor, which protects the server's
	// configured root function.
	SMVX = "smvx"
	// ReMon runs it under the same monitor at syscall granularity with
	// main as the root (see Root): the whole program is replicated, as by
	// ReMon (Volckaert et al.), Figure 7's baseline.
	ReMon = "remon"
)

// ErrUnknownMode is the error, wrapped with the mode, for a mode that is
// none of Vanilla, SMVX and ReMon.
var ErrUnknownMode = errors.New("unknown mode")

// Root returns the function a server run in mode protects: protect under
// SMVX, main under ReMon (the region is the whole program, its followers
// cloned before main runs) and none under Vanilla.
func Root(mode, protect string) string {
	switch mode {
	case SMVX:
		return protect
	case ReMon:
		return "main"
	}
	return ""
}

// Port is the loopback port every started server listens on.
const Port = 8080

// Launch is one server run: the server, how it executes, and what is
// attached to the process before the worker starts.
type Launch struct {
	Server Server
	// Mode is Vanilla, SMVX or ReMon. A ReMon server protects
	// Root(ReMon, "").
	Mode string
	// Seed seeds the kernel, the process and the monitor.
	Seed int64
	// Boot holds boot options applied after boot.WithSeed(Seed).
	Boot []boot.Option
	// Monitor builds the monitor of the booted process, adding opts (the
	// mode's own options) to its own; nil builds one with the seed, the
	// process's recorder and opts, nothing else.
	Monitor func(env *boot.Env, seed int64, opts ...core.Option) *core.Monitor
	// Setup, when non-nil, runs before the worker's first instruction: the
	// place to attach libc observers, profilers and taint sinks.
	Setup func(env *boot.Env)
}

// Run is a started server and the client that drives it.
type Run struct {
	Env *boot.Env
	// Client is the external machine the request helpers send from.
	Client *kernel.Process
	// Mon is the run's monitor, nil under Vanilla.
	Mon *core.Monitor

	mode         string
	sent, served int
	done         chan error
}

// Start boots l.Server in a fresh kernel, installs the 4KiB page at its
// doc root, creates the client, attaches the mode's monitor, runs l.Setup
// and launches the worker. The caller drives traffic, then calls Wait (a
// clean run) or Exit (a run that delivered attacks).
func Start(l Launch) (*Run, error) {
	var docRoot, root string
	switch s := l.Server.(type) {
	case *nginx.Server:
		docRoot, root = s.Config().DocRoot, s.Config().Protect
	case *lighttpd.Server:
		docRoot, root = s.Config().DocRoot, s.Config().Protect
	default:
		return nil, fmt.Errorf("start: unknown server %T", l.Server)
	}
	if l.Mode == ReMon && root != Root(ReMon, "") {
		return nil, fmt.Errorf("start: remon protects %s, not %q", Root(ReMon, ""), root)
	}
	k := kernel.New(clock.DefaultCosts(), l.Seed)
	env, err := boot.NewEnv(k, l.Server.Program(), append([]boot.Option{boot.WithSeed(l.Seed)}, l.Boot...)...)
	if err != nil {
		return nil, err
	}
	k.FS().WriteFile(docRoot+"/index.html", Page4K)
	r := &Run{Env: env, Client: k.NewProcess(clock.NewCounter()), mode: l.Mode, done: make(chan error, 1)}
	switch l.Mode {
	case Vanilla:
	case SMVX, ReMon:
		newMon := l.Monitor
		if newMon == nil {
			newMon = monitor()
		}
		var opts []core.Option
		if l.Mode == ReMon {
			opts = append(opts, core.WithSyscallGranularity())
		}
		r.Mon = newMon(env, l.Seed, opts...)
		l.Server.SetMVX(r.Mon)
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownMode, l.Mode)
	}
	th, err := env.MainThread()
	if err != nil {
		return nil, err
	}
	if l.Setup != nil {
		l.Setup(env)
	}
	go func() { r.done <- l.Server.Run(th) }()
	return r, nil
}

// monitor is the experiments' monitor constructor: the run's seed and
// recorder, then opts, then the mode's options.
func monitor(opts ...core.Option) func(*boot.Env, int64, ...core.Option) *core.Monitor {
	return func(env *boot.Env, seed int64, mode ...core.Option) *core.Monitor {
		all := append([]core.Option{core.WithSeed(seed), core.WithRecorder(env.Obs)}, opts...)
		return core.New(env.Machine, env.LibC, append(all, mode...)...)
	}
}

// AB sends n sequential GETs of the page, as `ab -n n`.
func (r *Run) AB(n int) workload.ABResult {
	res := workload.RunAB(r.Client, Port, "/index.html", n)
	r.sent += n
	r.served += res.Completed
	return res
}

// Load sends n GETs of the page through c closed-loop clients, as
// `ab -n n -c c`.
func (r *Run) Load(n, c int) workload.LoadResult {
	res := workload.RunConcurrent(r.Env.Kernel, Port, "/index.html", n, c)
	r.sent += n
	r.served += res.Completed
	return res
}

// Get sends one GET of the page and returns the response.
func (r *Run) Get() ([]byte, error) {
	resp, err := workload.RequestPath(r.Client, Port, workload.GetRequest("/index.html"))
	r.sent++
	if err == nil && len(resp) > 0 {
		r.served++
	}
	return resp, err
}

// Exit waits for the worker to return and returns its error. A run ends
// with one call to Exit or Wait.
func (r *Run) Exit() error { return <-r.done }

// Wait finishes a clean run: it fails unless the worker returned cleanly,
// every request sent was served, and no variant raised an alarm.
func (r *Run) Wait() error {
	name := r.Env.Img.Name + " " + r.mode
	if err := r.Exit(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if r.served != r.sent {
		return fmt.Errorf("%s: served %d of %d requests", name, r.served, r.sent)
	}
	if r.Mon != nil && len(r.Mon.Alarms()) != 0 {
		return fmt.Errorf("%s alarms: %v", name, r.Mon.Alarms())
	}
	return nil
}

// httpApp is the app coordinate of the paper's request-driven artifacts
// (Figures 7 and 8, the CPU and memory experiments of Section 4.1).
type httpApp struct {
	name string
	// server builds the app for an ab workload of requests, protecting
	// root ("" for none).
	server func(requests int, root string) Server
	// loopRoot is the whole request loop, Figure 7's full protection;
	// taintedRoot is the outermost tainted function that Section 4.1
	// protects.
	loopRoot, taintedRoot string
}

var (
	nginxApp = httpApp{
		name: "nginx",
		server: func(n int, root string) Server {
			return nginx.NewServer(nginx.Config{Port: Port, MaxRequests: n, AccessLog: true, Protect: root})
		},
		loopRoot:    "ngx_worker_process_cycle",
		taintedRoot: "ngx_http_process_request_line",
	}
	// The paper protects lighttpd's server_main_loop (70% of cycles) in
	// Section 4.1. In this model the per-request state machine plays that
	// role: the subtree holding every sensitive function, without the
	// event-wait and accept overhead.
	lighttpdApp = httpApp{
		name: "lighttpd",
		server: func(n int, root string) Server {
			return lighttpd.NewServer(lighttpd.Config{Port: Port, MaxRequests: n, Protect: root})
		},
		loopRoot:    "server_main_loop",
		taintedRoot: "connection_state_machine",
	}
)

// serve runs the app under mode for an ab workload of n requests —
// protecting Root(mode, root) — and returns the finished clean run.
func (a httpApp) serve(mode, root string, n int, setup func(*boot.Env)) (*Run, error) {
	r, err := Start(Launch{Server: a.server(n, Root(mode, root)), Mode: mode, Seed: Seed, Setup: setup})
	if err != nil {
		return nil, err
	}
	r.AB(n)
	return r, r.Wait()
}

// pct renders a ratio-1 as a percentage string.
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }
