package experiments

import (
	"fmt"
	"strings"

	"smvx/internal/apps/lighttpd"
	"smvx/internal/libc"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
)

// Table1 renders the libc-call emulation categories (Table 1 of the paper)
// from the live classification the monitor actually uses.
func Table1() string {
	groups := map[libc.Category][]string{}
	for _, name := range libc.Names() {
		c := libc.CategoryOf(name)
		groups[c] = append(groups[c], name)
	}
	var b strings.Builder
	b.WriteString("Table 1: libc calls emulation with different requirements\n")
	for _, c := range []libc.Category{libc.CatRetOnly, libc.CatRetBuf, libc.CatSpecial, libc.CatLocal} {
		fmt.Fprintf(&b, "%-46s %s\n", c.String()+":", strings.Join(groups[c], ", "))
	}
	fmt.Fprintf(&b, "total simulated libc calls: %d\n", len(libc.Names()))
	return b.String()
}

// Table2Result reproduces Table 2: the mvx_start() overhead breakdown on
// lighttpd plus the clone()/fork() baselines.
type Table2Result struct {
	// DupUS is process duplication (copy+move), paper: 14.7us.
	DupUS float64
	// DataScanUS is the .data/.bss pointer scan, paper: 320.8us.
	DataScanUS float64
	// HeapScanUS is the heap pointer scan, paper: 13162.4us.
	HeapScanUS float64
	// CloneUS is thread creation with clone(), paper: 9.5us.
	CloneUS float64
	// ForkUS is fork() of an empty main(), paper: 640us.
	ForkUS float64
	// ForkInitUS is fork() during lighttpd initialization, paper: 697us.
	ForkInitUS float64
	// PointersRelocated counts patched slots.
	PointersRelocated int
}

// Table2 runs lighttpd to the brink of its protected region, triggers
// mvx_start() once, and reports the Table 2 latency breakdown.
func Table2() (*Table2Result, error) {
	// Protected lighttpd run to capture the mvx_start breakdown. The
	// production-style buffer-pool configuration gives the heap the
	// dominant share of the scan, as in the paper's Table 2.
	r, err := Start(Launch{Server: lighttpd.NewServer(lighttpd.Config{
		Port: Port, MaxRequests: 2, Protect: "server_main_loop", PoolKB: 2048,
	}), Mode: SMVX, Seed: Seed})
	if err != nil {
		return nil, err
	}
	r.AB(2)
	if err := r.Wait(); err != nil {
		return nil, fmt.Errorf("table2: %w", err)
	}
	stats := r.Mon.LastCreation()

	res := &Table2Result{
		DupUS:             stats.DupCycles.Micros(),
		DataScanUS:        stats.DataScanCycles.Micros(),
		HeapScanUS:        stats.HeapScanCycles.Micros(),
		CloneUS:           stats.CloneCycles.Micros(),
		PointersRelocated: stats.PointersRelocated,
	}

	// clone()/fork() baselines on a bare process.
	costs := clock.DefaultCosts()
	k := kernel.New(costs, Seed)
	ctr := clock.NewCounter()
	p := k.NewProcess(ctr)
	before := ctr.Cycles()
	p.Fork(0)
	res.ForkUS = (ctr.Cycles() - before).Micros()

	// fork during lighttpd initialization: resident pages inflate the
	// page-table duplication.
	r, err = Start(Launch{Server: lighttpd.NewServer(lighttpd.Config{
		Port: Port, MaxRequests: 1, ForkInInit: true,
	}), Mode: Vanilla, Seed: Seed})
	if err != nil {
		return nil, err
	}
	r.AB(1)
	if err := r.Wait(); err != nil {
		return nil, fmt.Errorf("table2 fork-init run: %w", err)
	}
	// Isolate the fork's share: resident pages at init ≈ final residency
	// before serving; recompute from the cost model against the process's
	// page count for an exact, deterministic figure.
	resident := r.Env.AS.ResidentPages()
	res.ForkInitUS = (costs.ForkBase + costs.ForkPerPage*clock.Cycles(resident)).Micros()
	return res, nil
}

// String renders the table.
func (r *Table2Result) String() string {
	var b strings.Builder
	b.WriteString("Table 2: mvx_start() overheads on lighttpd (paper values in parens)\n")
	fmt.Fprintf(&b, "%-46s %10.1fus  (14.7us)\n", "Process duplication (copy+move)", r.DupUS)
	fmt.Fprintf(&b, "%-46s %10.1fus  (320.8us)\n", "Data pointer scan overhead", r.DataScanUS)
	fmt.Fprintf(&b, "%-46s %10.1fus  (13162.4us)\n", "Heap pointer scan overhead", r.HeapScanUS)
	fmt.Fprintf(&b, "%-46s %10.1fus  (9.5us)\n", "Thread creation with clone()", r.CloneUS)
	fmt.Fprintf(&b, "%-46s %10.1fus  (640us)\n", "fork() overhead (empty main())", r.ForkUS)
	fmt.Fprintf(&b, "%-46s %10.1fus  (697us)\n", "fork() overhead (during lighttpd init)", r.ForkInitUS)
	fmt.Fprintf(&b, "%-46s %10d\n", "pointer slots relocated", r.PointersRelocated)
	return b.String()
}
