// Command smvx-taint runs the Figure 3 taint-analysis workflow end to end:
// nginx on top of the libdft-equivalent engine, driven first by an
// ApacheBench workload and then by the scout-style URL fuzzer; the tainted
// instruction addresses are written in dft.out format, parsed back,
// filtered to .text, and symbolized to the candidate sensitive functions
// sMVX should protect.
//
// Usage:
//
//	smvx-taint -ab 20 -fuzz 100
package main

import (
	"flag"
	"fmt"
	"os"

	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/cli"
	"smvx/internal/experiments"
	"smvx/internal/sim/image"
	"smvx/internal/taint"
	"smvx/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "smvx-taint:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		abN     = flag.Int("ab", 20, "ApacheBench requests")
		fuzzN   = flag.Int("fuzz", 100, "fuzzer probes")
		showDFT = flag.Bool("dft", false, "dump the raw dft.out")
	)
	var cfg cli.Config
	cfg.Register(flag.CommandLine)
	flag.Parse()

	rt, err := cfg.Resolve(map[string]string{"app": "nginx", "artifact": "taint"})
	if err != nil {
		return err
	}
	seed := cfg.Seed

	engine := taint.NewEngine()
	r, err := experiments.Start(experiments.Launch{
		Server: nginx.NewServer(nginx.Config{
			Port: experiments.Port, MaxRequests: *abN + *fuzzN,
			AuthUser: "admin", AuthPass: "s3cret",
		}),
		Mode: experiments.Vanilla, Seed: seed, Boot: append(rt.BootOptions(seed), boot.WithTaint()),
		Setup: func(env *boot.Env) { env.Machine.SetTaintSink(engine) },
	})
	if err != nil {
		return err
	}

	fmt.Printf("[1/4] running libdft-instrumented nginx under ab (%d requests)\n", *abN)
	r.AB(*abN)
	fmt.Printf("      tainted instruction addresses so far: %d\n", engine.Count())

	fmt.Printf("[2/4] fuzzing with scout-style URL fuzzer (%d probes)\n", *fuzzN)
	workload.NewFuzzer(experiments.Port, seed).Run(r.Client, *fuzzN)
	if err := r.Wait(); err != nil {
		return err
	}
	fmt.Printf("      tainted instruction addresses total: %d\n", engine.Count())

	fmt.Println("[3/4] parsing dft.out and filtering by .text addresses")
	dft := engine.WriteDFTOut()
	if *showDFT {
		os.Stdout.Write(dft)
	}
	prof, err := image.ParseProfile(r.Env.Img.WriteProfile())
	if err != nil {
		return err
	}

	fmt.Println("[4/4] resolving nearest function symbols (r2pipe step)")
	fns, err := taint.Candidates(engine, prof)
	if err != nil {
		return err
	}
	fmt.Printf("\n%d sensitive function candidates for sMVX protection:\n", len(fns))
	for _, fn := range fns {
		fmt.Println("  " + fn)
	}
	return rt.Finish()
}
