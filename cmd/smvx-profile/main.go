// Command smvx-profile is the paper's profile-extraction script
// (Section 3.2): it analyzes a binary image and emits the profile file —
// the start offsets and sizes of the .text, .data, .bss, .plt and .got.plt
// sections plus the symbol table — that the sMVX monitor reads from /tmp
// before running the application.
//
// Usage:
//
//	smvx-profile -app nginx          # print nginx's profile
//	smvx-profile -app lighttpd
//	smvx-profile -app nbench -symbols  # append a symbol count summary
package main

import (
	"flag"
	"fmt"
	"os"

	"smvx/internal/apps/lighttpd"
	"smvx/internal/apps/nbench"
	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/cli"
	"smvx/internal/experiments"
	"smvx/internal/perfprof"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/kernel"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "smvx-profile:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		app     = flag.String("app", "nginx", "binary to profile: nginx | lighttpd | nbench")
		symbols = flag.Bool("symbols", false, "print a symbol summary after the profile")
		flame   = flag.Bool("flame", false, "run a short vanilla workload and print a libc flame summary plus folded call stacks")
	)
	var cfg cli.Config
	cfg.Register(flag.CommandLine)
	flag.Parse()

	if *flame {
		// Flame mode always needs the trace and the sampler, whatever the
		// observability flags say.
		cfg.NeedRecorder = true
		cfg.NeedSampler = true
		rt, err := cfg.Resolve(map[string]string{"app": *app, "artifact": "flame"})
		if err != nil {
			return err
		}
		if err := runFlame(*app, cfg.Seed, rt); err != nil {
			return err
		}
		return rt.Finish()
	}

	var img *image.Image
	switch *app {
	case "nginx":
		img = nginx.BuildImage()
	case "lighttpd":
		img = lighttpd.BuildImage()
	case "nbench":
		img = nbench.BuildImage()
	default:
		return fmt.Errorf("unknown app %q", *app)
	}

	os.Stdout.Write(img.WriteProfile())
	fmt.Printf("# profile path inside the simulation: %s\n", image.ProfilePath(img.Name))
	if *symbols {
		syms := img.Symbols()
		fmt.Printf("# %d symbols, %d PLT slots\n", len(syms), len(img.PLTSlots()))
	}
	return nil
}

// runFlame executes a short vanilla workload with the flight recorder and
// the virtual-cycle sampler attached, then prints two views of where the
// cycles went: the libc flame summary reconstructed from the event trace
// (perfprof.FromTrace) and the sampler's folded call stacks, ready for
// flamegraph.pl / inferno.
func runFlame(app string, seed int64, rt *cli.Runtime) error {
	rec, sampler := rt.Recorder, rt.Sampler
	var env *boot.Env
	var err error
	switch app {
	case "nginx":
		env, err = flameServer(nginx.NewServer(nginx.Config{Port: experiments.Port, MaxRequests: 8, AccessLog: true}), seed, rt)
	case "lighttpd":
		env, err = flameServer(lighttpd.NewServer(lighttpd.Config{Port: experiments.Port, MaxRequests: 8}), seed, rt)
	case "nbench":
		if env, err = boot.NewEnv(kernel.New(clock.DefaultCosts(), seed), nbench.Program(), rt.BootOptions(seed)...); err == nil {
			nbench.SetupFS(env)
			_, err = nbench.RunOne(env, nil, "numeric_sort", 3)
		}
	default:
		return fmt.Errorf("unknown app %q", app)
	}
	if err != nil {
		return err
	}

	fmt.Print(perfprof.FromTrace(rec.Events()).FlameText(env.Counter.Cycles()))
	fmt.Println()
	fmt.Println("folded stacks (frame;frame;... samples — flamegraph.pl input)")
	fmt.Print(sampler.Folded())
	return nil
}

// flameServer serves srv an unprotected 8-request ab workload.
func flameServer(srv experiments.Server, seed int64, rt *cli.Runtime) (*boot.Env, error) {
	r, err := experiments.Start(experiments.Launch{
		Server: srv, Mode: experiments.Vanilla, Seed: seed, Boot: rt.BootOptions(seed),
	})
	if err != nil {
		return nil, err
	}
	r.AB(8)
	return r.Env, r.Wait()
}
