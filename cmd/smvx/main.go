// Command smvx runs one of the evaluation applications under vanilla
// execution, the sMVX monitor, or (servers only) the same monitor in
// ReMon's posture — syscall granularity, the whole program protected — and
// prints cycle, syscall, alarm, and memory summaries.
//
// Usage:
//
//	smvx -app nginx -mode smvx -protect ngx_worker_process_cycle -requests 50
//	smvx -app lighttpd -mode remon -requests 50
//	smvx -app nbench -bench neural_net -iters 10 -mode smvx
//	smvx -app nginx -mode smvx -lockstep pipelined -lag-window 16
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"smvx/internal/apps/apputil"
	"smvx/internal/apps/lighttpd"
	"smvx/internal/apps/nbench"
	"smvx/internal/apps/nginx"
	"smvx/internal/cli"
	"smvx/internal/core"
	"smvx/internal/experiments"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
)

// errUnhandledAlarms marks a run whose monitor raised alarms no containment
// policy absorbed: the process exits with status 2 so scripts and CI can
// tell "diverged" from "broken invocation" (status 1).
var errUnhandledAlarms = errors.New("unhandled divergence alarms")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "smvx:", err)
		if errors.Is(err, errUnhandledAlarms) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run() error {
	var (
		app      = flag.String("app", "nginx", "application: nginx | lighttpd | nbench")
		mode     = flag.String("mode", "smvx", "execution mode: vanilla | smvx | remon")
		protect  = flag.String("protect", "", "protected root function (smvx mode; default: app-specific)")
		requests = flag.Int("requests", 20, "HTTP requests to drive (servers)")
		bench    = flag.String("bench", "numeric_sort", "nbench kernel (nbench app)")
		iters    = flag.Int("iters", 5, "nbench iterations")
		version  = flag.String("version", nginx.VersionFixed, "nginx version (1.3.9 = vulnerable)")
	)
	var cfg cli.Config
	cfg.Register(flag.CommandLine)
	flag.Parse()
	// -metrics prints the flight recorder's table here, so it needs one
	// even when no tracing flag asked for it.
	cfg.NeedRecorder = cfg.Metrics

	rt, err := cfg.Resolve(map[string]string{
		"app":  *app,
		"mode": *mode,
		"seed": fmt.Sprint(cfg.Seed),
	})
	if err != nil {
		return err
	}

	var appErr error
	if *app == "nbench" {
		appErr = runNbench(*bench, *iters, *mode, cfg.Seed, rt)
	} else {
		appErr = runServer(*app, *mode, *protect, *requests, *version, cfg.Seed, rt)
	}
	if appErr != nil && !errors.Is(appErr, errUnhandledAlarms) {
		return appErr
	}
	// An unhandled-alarm exit still emits the observability artifacts — the
	// forensics are the whole point of a diverged run.
	if err := rt.Finish(); err != nil {
		return err
	}
	return appErr
}

// runNbench runs one nbench kernel under mode. ReMon is Figure 7's server
// baseline only, so nbench takes vanilla and smvx.
func runNbench(name string, iters int, mode string, seed int64, rt *cli.Runtime) error {
	if mode != experiments.Vanilla && mode != experiments.SMVX {
		return fmt.Errorf("%w %q", experiments.ErrUnknownMode, mode)
	}
	env, mon, err := rt.Boot(kernel.New(clock.DefaultCosts(), seed), nbench.Program(), seed, mode == experiments.SMVX)
	if err != nil {
		return err
	}
	nbench.SetupFS(env)
	var mvx machine.MVX
	if mon != nil {
		mvx = mon
	}
	cycles, err := nbench.RunOne(env, mvx, name, iters)
	if err != nil {
		return err
	}
	fmt.Printf("%s x%d under %s: %s wall, %s total CPU\n",
		name, iters, mode, cycles, env.Counter.Cycles())
	return printAlarms(mon)
}

// runServer drives one HTTP server under mode with an ab workload and
// prints its summary.
func runServer(app, mode, protect string, requests int, version string, seed int64, rt *cli.Runtime) error {
	var onRequest func(uint64)
	if rt.Recorder != nil {
		onRequest = func(total uint64) {
			rt.Recorder.Metrics().SetGauge("http.requests.served", float64(total))
		}
	}
	var track *apputil.RequestTracker
	if rt.Fleet != nil {
		track = &apputil.RequestTracker{App: app, Rec: rt.Recorder, Fleet: rt.Fleet}
	}
	var srv experiments.Server
	label, libcRatio := app, false
	switch app {
	case "nginx":
		if protect == "" {
			protect = "ngx_worker_process_cycle"
		}
		srv = nginx.NewServer(nginx.Config{Port: experiments.Port, MaxRequests: requests, AccessLog: true,
			Version: version, Protect: experiments.Root(mode, protect), OnRequest: onRequest, Track: track})
		label, libcRatio = fmt.Sprintf("nginx (%s)", version), true
	case "lighttpd":
		if protect == "" {
			protect = "server_main_loop"
		}
		srv = lighttpd.NewServer(lighttpd.Config{Port: experiments.Port, MaxRequests: requests,
			Protect: experiments.Root(mode, protect), OnRequest: onRequest, Track: track})
	default:
		return fmt.Errorf("unknown app %q", app)
	}
	r, err := experiments.Start(experiments.Launch{
		Server: srv, Mode: mode, Seed: seed, Boot: rt.BootOptions(seed), Monitor: rt.NewMonitor,
	})
	if err != nil {
		return err
	}
	res := r.AB(requests)
	if err := r.Exit(); err != nil {
		fmt.Printf("server exited with: %v\n", err)
	}
	fmt.Printf("%s under %s: %d/%d requests, %d bytes\n", label, mode, res.Completed, requests, res.BytesRead)
	env := r.Env
	fmt.Printf("wall: %s   total CPU: %s   RSS: %dKB\n",
		env.Wall.Cycles(), env.Counter.Cycles(), env.ResidentKB())
	if libcRatio {
		fmt.Printf("libc calls: %d   syscalls: %d   ratio: %.2f\n",
			env.LibC.TotalCalls(), env.Proc.SyscallTotal(),
			float64(env.LibC.TotalCalls())/float64(env.Proc.SyscallTotal()))
	}
	return printAlarms(r.Mon)
}

// printAlarms reports the monitor's alarms and returns errUnhandledAlarms
// when any of them was not absorbed by the divergence policy, so the process
// exit status reflects an uncontained divergence.
func printAlarms(mon *core.Monitor) error {
	if mon == nil {
		return nil
	}
	alarms := mon.Alarms()
	if len(alarms) == 0 {
		fmt.Println("alarms: none")
		return nil
	}
	fmt.Printf("ALARMS (%d):\n", len(alarms))
	for _, a := range alarms {
		state := "unhandled"
		if a.Handled {
			state = "contained"
		}
		fmt.Printf("  [%s, %s] call #%d: %s\n", a.Reason, state, a.CallIndex, a.Detail)
	}
	if mon.Degraded() || mon.RestartsUsed() > 0 {
		fmt.Printf("policy: degraded=%v follower restarts=%d\n", mon.Degraded(), mon.RestartsUsed())
	}
	if n := mon.UnhandledAlarmCount(); n > 0 {
		return fmt.Errorf("%w: %d", errUnhandledAlarms, n)
	}
	return nil
}
