package experiments

import (
	"fmt"
	"strings"

	"smvx/internal/sim/clock"
)

// Fig7Server is one server's column set in Figure 7.
type Fig7Server struct {
	// Name is "nginx" or "lighttpd".
	Name string
	// VanillaWall, SMVXWall, ReMonWall are elapsed wall cycles for the
	// same request count.
	VanillaWall clock.Cycles
	SMVXWall    clock.Cycles
	ReMonWall   clock.Cycles
	// SMVXOverhead and ReMonOverhead are normalized against vanilla
	// (paper: sMVX 266% on nginx, 223% on lighttpd; ReMon lower).
	SMVXOverhead  float64
	ReMonOverhead float64
	// LibcSyscallRatio is libc calls per syscall under vanilla execution
	// (paper: 5.4 for nginx, 7.8 for lighttpd).
	LibcSyscallRatio float64
}

// Fig7Result reproduces Figure 7.
type Fig7Result struct {
	// Nginx and Lighttpd are the two server columns.
	Nginx    Fig7Server
	Lighttpd Fig7Server
}

// Figure7 measures HTTP throughput overhead under full protection: vanilla
// versus sMVX (whole request loop protected) versus the ReMon-style
// whole-program baseline, over an ApacheBench workload on loopback serving
// a 4KB page.
func Figure7(requests int) (*Fig7Result, error) {
	res := &Fig7Result{}
	var err error
	if res.Nginx, err = figure7Server(nginxApp, requests); err != nil {
		return nil, err
	}
	if res.Lighttpd, err = figure7Server(lighttpdApp, requests); err != nil {
		return nil, err
	}
	return res, nil
}

// figure7Server measures one server column: vanilla (with the
// libc:syscall ratio), the whole worker loop protected, and ReMon.
func figure7Server(a httpApp, requests int) (Fig7Server, error) {
	out := Fig7Server{Name: a.name}
	van, err := a.serve(Vanilla, "", requests, nil)
	if err != nil {
		return out, fmt.Errorf("fig7: %w", err)
	}
	mvx, err := a.serve(SMVX, a.loopRoot, requests, nil)
	if err != nil {
		return out, fmt.Errorf("fig7: %w", err)
	}
	rem, err := a.serve(ReMon, "", requests, nil)
	if err != nil {
		return out, fmt.Errorf("fig7: %w", err)
	}
	out.VanillaWall, out.SMVXWall, out.ReMonWall = van.Env.Wall.Cycles(), mvx.Env.Wall.Cycles(), rem.Env.Wall.Cycles()
	out.LibcSyscallRatio = float64(van.Env.LibC.TotalCalls()) / float64(van.Env.Proc.SyscallTotal())
	out.SMVXOverhead = float64(out.SMVXWall)/float64(out.VanillaWall) - 1
	out.ReMonOverhead = float64(out.ReMonWall)/float64(out.VanillaWall) - 1
	return out, nil
}

// String renders the figure as a table.
func (r *Fig7Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 7: nginx and lighttpd performance under sMVX vs ReMon\n")
	b.WriteString(fmt.Sprintf("%-10s %14s %14s %12s %12s\n",
		"server", "sMVX overhead", "ReMon overhead", "libc/syscall", "paper sMVX"))
	paper := map[string]string{"nginx": "266%", "lighttpd": "223%"}
	for _, s := range []Fig7Server{r.Nginx, r.Lighttpd} {
		b.WriteString(fmt.Sprintf("%-10s %14s %14s %12.2f %12s\n",
			s.Name, pct(s.SMVXOverhead), pct(s.ReMonOverhead), s.LibcSyscallRatio, paper[s.Name]))
	}
	return b.String()
}
