package experiments

import (
	"fmt"
	"strings"

	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/sim/image"
	"smvx/internal/taint"
	"smvx/internal/workload"
)

// Fig9Point is one measurement along the fuzzing timeline.
type Fig9Point struct {
	// Label names the workload phase ("ab", "fuzzing (1min)", …).
	Label string
	// Functions is the cumulative number of sensitive functions the taint
	// analysis has identified.
	Functions int
	// Names lists them.
	Names []string
}

// Fig9Result reproduces Figure 9: sensitive functions discovered by the
// taint analysis under ab, then under progressively longer fuzzing.
type Fig9Result struct {
	// Points are in workload order.
	Points []Fig9Point
}

// Figure9 runs nginx on top of the taint engine (the libdft workflow of
// Figure 3), first under the plain ApacheBench workload, then under the
// scout-style URL fuzzer in batches standing in for the paper's 1/5/30/41
// fuzzing minutes. The paper sees 16 functions from ab growing to 30 by the
// end of fuzzing; the reproduced shape is the monotone growth from the ab
// baseline to the fuzzing plateau.
func Figure9(abRequests int, fuzzBatches []int) (*Fig9Result, error) {
	totalFuzz := 0
	for _, n := range fuzzBatches {
		totalFuzz += n
	}
	engine := taint.NewEngine()
	r, err := Start(Launch{
		Server: nginx.NewServer(nginx.Config{
			Port: Port, MaxRequests: abRequests + totalFuzz,
			AuthUser: "admin", AuthPass: "s3cret",
		}),
		Mode: Vanilla, Seed: Seed, Boot: []boot.Option{boot.WithTaint()},
		Setup: func(env *boot.Env) {
			env.Kernel.FS().WriteFile("/var/www/images/logo.png", Page4K[:512])
			env.Machine.SetTaintSink(engine)
		},
	})
	if err != nil {
		return nil, err
	}

	prof, err := image.ParseProfile(r.Env.Img.WriteProfile())
	if err != nil {
		return nil, err
	}
	snapshot := func(label string) (Fig9Point, error) {
		names, err := taint.Candidates(engine, prof)
		if err != nil {
			return Fig9Point{}, err
		}
		return Fig9Point{Label: label, Functions: len(names), Names: names}, nil
	}

	res := &Fig9Result{}
	r.AB(abRequests)
	pt, err := snapshot("ab")
	if err != nil {
		return nil, err
	}
	res.Points = append(res.Points, pt)

	fz := workload.NewFuzzer(Port, Seed)
	minutes := []string{"1min", "5min", "30min", "41min,end"}
	for i, batch := range fuzzBatches {
		fz.Run(r.Client, batch)
		label := fmt.Sprintf("fuzzing (batch %d)", i+1)
		if i < len(minutes) {
			label = "fuzzing (" + minutes[i] + ")"
		}
		pt, err := snapshot(label)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	if err := r.Wait(); err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}
	return res, nil
}

// String renders the figure as a table.
func (r *Fig9Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 9: sensitive functions from taint analysis\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-22s %3d  %s\n", p.Label, p.Functions, strings.Join(p.Names, ","))
	}
	return b.String()
}
