package experiments

import (
	"fmt"
	"strings"

	"smvx/internal/boot"
	"smvx/internal/perfprof"
)

// CPUServer is one server's CPU-cycles result (Section 4.1).
type CPUServer struct {
	// Name is the server.
	Name string
	// ProtectedFn is the outermost protected (tainted) function.
	ProtectedFn string
	// SubtreePercent is the protected function's share of total cycles in
	// the vanilla flame graph (paper: 60.8% nginx, 70% lighttpd).
	SubtreePercent float64
	// AnalyticPercent is the paper's construction of sMVX's CPU
	// consumption: 100% (the leader) plus the protected subtree's share
	// replicated by the follower (paper: ~160% nginx, ~170% lighttpd).
	AnalyticPercent float64
	// MeasuredPercent is the measured total CPU including per-region
	// variant-creation costs — high when the protected region sits inside
	// the request loop, the caveat the paper's Section 5 discusses.
	MeasuredPercent float64
	// TradPercent is whole-program MVX's consumption (200% by
	// construction: two full copies).
	TradPercent float64
}

// CPUResult reproduces the CPU-cycles-saved experiment.
type CPUResult struct {
	Nginx    CPUServer
	Lighttpd CPUServer
	// FlameNginx is the perf-style flame summary for nginx.
	FlameNginx string
}

// CPUCycles profiles both servers with the perf-style profiler, reports the
// protected subtree's share of cycles, then measures total CPU consumption
// (leader + follower) under sMVX protection of the outermost tainted
// function versus 2× vanilla for traditional MVX.
func CPUCycles(requests int) (*CPUResult, error) {
	res := &CPUResult{}
	var err error
	if res.Nginx, res.FlameNginx, err = cpuServer(nginxApp, requests); err != nil {
		return nil, err
	}
	if res.Lighttpd, _, err = cpuServer(lighttpdApp, requests); err != nil {
		return nil, err
	}
	return res, nil
}

// cpuServer profiles one server's vanilla run — the flame-graph step, with
// the profiler attached before the worker starts — then measures total CPU
// with the outermost tainted function protected, the follower's replicated
// share included. It returns the vanilla flame summary too.
func cpuServer(a httpApp, requests int) (CPUServer, string, error) {
	out := CPUServer{Name: a.name, ProtectedFn: a.taintedRoot, TradPercent: 200}
	prof := perfprof.New()
	van, err := a.serve(Vanilla, "", requests, func(env *boot.Env) { env.Machine.SetProfiler(prof) })
	if err != nil {
		return out, "", fmt.Errorf("cpu: %w", err)
	}
	vanillaTotal := van.Env.Counter.Cycles()
	out.SubtreePercent = prof.Percent(out.ProtectedFn, vanillaTotal)
	out.AnalyticPercent = 100 + out.SubtreePercent
	mvx, err := a.serve(SMVX, a.taintedRoot, requests, nil)
	if err != nil {
		return out, "", fmt.Errorf("cpu: %w", err)
	}
	out.MeasuredPercent = float64(mvx.Env.Counter.Cycles()) / float64(vanillaTotal) * 100
	return out, prof.FlameText(vanillaTotal), nil
}

// String renders the CPU experiment.
func (r *CPUResult) String() string {
	var b strings.Builder
	b.WriteString("CPU cycles saved from selective MVX (Section 4.1)\n")
	b.WriteString(fmt.Sprintf("%-10s %-32s %10s %12s %14s %12s\n",
		"server", "protected fn", "subtree%", "sMVX CPU", "sMVX measured", "trad. MVX"))
	for _, s := range []CPUServer{r.Nginx, r.Lighttpd} {
		b.WriteString(fmt.Sprintf("%-10s %-32s %9.1f%% %11.0f%% %13.0f%% %11.0f%%\n",
			s.Name, s.ProtectedFn, s.SubtreePercent, s.AnalyticPercent, s.MeasuredPercent, s.TradPercent))
	}
	b.WriteString("paper: nginx 60.8% subtree -> ~160% vs 200%; lighttpd 70% -> ~170% vs 200%\n")
	b.WriteString("(measured includes per-request variant creation: the control-loop caveat of Section 5)\n")
	return b.String()
}

// MemServer is one server's RSS measurements (Section 4.1).
type MemServer struct {
	// Name is the server.
	Name string
	// VanillaKB is one instance's RSS after the workload.
	VanillaKB int
	// SMVXKB is the RSS with the follower variant resident.
	SMVXKB int
	// TradKB is two full instances (traditional MVX).
	TradKB int
	// SavedPercent is 1 - SMVX/Trad (paper: ~49% average).
	SavedPercent float64
}

// MemResult reproduces the memory-consumption experiment.
type MemResult struct {
	Nginx    MemServer
	Lighttpd MemServer
}

// Memory measures RSS after 10 HTTP requests, as the paper does with pmap:
// one vanilla instance, the sMVX instance with its follower variant
// resident, and traditional MVX as two vanilla instances, their RSS summed.
// (Paper: nginx 3208KB vs 6392KB; lighttpd 1372KB vs 2720KB.)
func Memory(requests int) (*MemResult, error) {
	res := &MemResult{}
	var err error
	if res.Nginx, err = memServer(nginxApp, requests); err != nil {
		return nil, err
	}
	if res.Lighttpd, err = memServer(lighttpdApp, requests); err != nil {
		return nil, err
	}
	return res, nil
}

// memServer measures one server's row. Traditional MVX replicates the
// whole program, so its baseline is two vanilla runs; the first is also the
// vanilla column.
func memServer(a httpApp, requests int) (MemServer, error) {
	s := MemServer{Name: a.name}
	for i := 0; i < 2; i++ {
		van, err := a.serve(Vanilla, "", requests, nil)
		if err != nil {
			return s, fmt.Errorf("mem: %w", err)
		}
		if i == 0 {
			s.VanillaKB = van.Env.ResidentKB()
		}
		s.TradKB += van.Env.ResidentKB()
	}
	// sMVX with the protected region's follower resident.
	mvx, err := a.serve(SMVX, a.taintedRoot, requests, nil)
	if err != nil {
		return s, fmt.Errorf("mem: %w", err)
	}
	s.SMVXKB = mvx.Env.ResidentKB()
	s.SavedPercent = (1 - float64(s.SMVXKB)/float64(s.TradKB)) * 100
	return s, nil
}

// String renders the memory experiment.
func (r *MemResult) String() string {
	var b strings.Builder
	b.WriteString("Memory consumption saved from selective MVX (RSS after workload)\n")
	b.WriteString(fmt.Sprintf("%-10s %12s %12s %14s %8s\n",
		"server", "vanilla", "sMVX", "2x vanilla", "saved"))
	for _, s := range []MemServer{r.Nginx, r.Lighttpd} {
		b.WriteString(fmt.Sprintf("%-10s %10dKB %10dKB %12dKB %7.0f%%\n",
			s.Name, s.VanillaKB, s.SMVXKB, s.TradKB, s.SavedPercent))
	}
	b.WriteString("paper: nginx 3208KB vs 6392KB; lighttpd 1372KB vs 2720KB (~49% saved)\n")
	return b.String()
}
