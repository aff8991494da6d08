package experiments

import (
	"strings"
	"sync"
	"testing"

	"smvx/internal/sim/clock"
)

// The experiment tests assert the paper's *shapes*: orderings, crossovers,
// and rough factors — not absolute cycle counts.

func TestFigure6Shape(t *testing.T) {
	res, err := Figure6(1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 benchmarks", len(res.Rows))
	}
	byName := map[string]Fig6Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	// Paper: ~7% average.
	if res.Mean < 0.02 || res.Mean > 0.15 {
		t.Errorf("mean overhead = %.1f%%, want ~7%%", res.Mean*100)
	}
	// Paper: Neural Net highest (~16%), from model-file I/O.
	nn := byName["Neural Net"]
	for _, r := range res.Rows {
		if r.Name != "Neural Net" && r.Overhead > nn.Overhead {
			t.Errorf("%s overhead %.1f%% exceeds Neural Net %.1f%%", r.Name, r.Overhead*100, nn.Overhead*100)
		}
	}
	if nn.Overhead < 0.08 || nn.Overhead > 0.30 {
		t.Errorf("Neural Net overhead = %.1f%%, want ~16%%", nn.Overhead*100)
	}
	// Paper: Numeric Sort, Bitfield, Assignment perform close to native.
	for _, name := range []string{"Numeric Sort", "Bitfield", "Assignment"} {
		if ov := byName[name].Overhead; ov > 0.05 {
			t.Errorf("%s overhead = %.1f%%, want near native", name, ov*100)
		}
	}
	if !strings.Contains(res.String(), "average") {
		t.Error("rendering missing average row")
	}
}

func TestFigure7Shape(t *testing.T) {
	res, err := Figure7(30)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: sMVX 266% on nginx, 223% on lighttpd; nginx > lighttpd.
	if res.Nginx.SMVXOverhead < 1.8 || res.Nginx.SMVXOverhead > 3.5 {
		t.Errorf("nginx sMVX overhead = %s, want ~266%%", pct(res.Nginx.SMVXOverhead))
	}
	if res.Lighttpd.SMVXOverhead < 1.5 || res.Lighttpd.SMVXOverhead > 3.0 {
		t.Errorf("lighttpd sMVX overhead = %s, want ~223%%", pct(res.Lighttpd.SMVXOverhead))
	}
	if res.Nginx.SMVXOverhead <= res.Lighttpd.SMVXOverhead {
		t.Errorf("nginx (%s) should exceed lighttpd (%s)",
			pct(res.Nginx.SMVXOverhead), pct(res.Lighttpd.SMVXOverhead))
	}
	// Paper: ReMon outperforms sMVX on throughput ("sMVX cannot ultimately
	// outperform ReMon").
	if res.Nginx.ReMonOverhead >= res.Nginx.SMVXOverhead {
		t.Error("ReMon should beat sMVX on nginx throughput")
	}
	if res.Lighttpd.ReMonOverhead >= res.Lighttpd.SMVXOverhead {
		t.Error("ReMon should beat sMVX on lighttpd throughput")
	}
	// Paper: libc:syscall ratios 5.4 (nginx) and 7.8 (lighttpd), lighttpd
	// higher.
	if res.Nginx.LibcSyscallRatio < 4 || res.Nginx.LibcSyscallRatio > 7 {
		t.Errorf("nginx ratio = %.2f, want ~5.4", res.Nginx.LibcSyscallRatio)
	}
	if res.Lighttpd.LibcSyscallRatio < 6 || res.Lighttpd.LibcSyscallRatio > 10 {
		t.Errorf("lighttpd ratio = %.2f, want ~7.8", res.Lighttpd.LibcSyscallRatio)
	}
	if res.Lighttpd.LibcSyscallRatio <= res.Nginx.LibcSyscallRatio {
		t.Error("lighttpd's libc:syscall ratio should exceed nginx's")
	}
}

func TestFigure8Shape(t *testing.T) {
	res, err := Figure8(60)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Monotone non-increasing as the protected root shrinks.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].LibcCalls > res.Rows[i-1].LibcCalls {
			t.Errorf("row %s (%d) exceeds outer %s (%d)",
				res.Rows[i].Fn, res.Rows[i].LibcCalls,
				res.Rows[i-1].Fn, res.Rows[i-1].LibcCalls)
		}
	}
	// The tainted leaves require far fewer calls than main().
	first := res.Rows[0].LibcCalls
	last := res.Rows[len(res.Rows)-1].LibcCalls
	if last*4 > first {
		t.Errorf("innermost root %d vs main %d: want a large reduction", last, first)
	}
	// Tainted markers on the right functions.
	for _, r := range res.Rows {
		wantTaint := strings.HasPrefix(r.Fn, "ngx_http_")
		if r.Tainted != wantTaint {
			t.Errorf("%s tainted=%v", r.Fn, r.Tainted)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	res, err := Figure9(15, []int{10, 30, 60, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// ab finds a baseline set; fuzzing grows it monotonically and ends
	// strictly larger (paper: 16 -> 30).
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Functions < res.Points[i-1].Functions {
			t.Errorf("point %d (%d fns) below point %d (%d)",
				i, res.Points[i].Functions, i-1, res.Points[i-1].Functions)
		}
	}
	first, lastPt := res.Points[0], res.Points[len(res.Points)-1]
	if lastPt.Functions <= first.Functions {
		t.Errorf("fuzzing (%d) must find more than ab (%d)", lastPt.Functions, first.Functions)
	}
	// The chunked-body handler is only reachable through fuzzing.
	joined := strings.Join(lastPt.Names, ",")
	if !strings.Contains(joined, "ngx_http_read_discarded_request_body") {
		t.Errorf("fuzzing should reach the chunked-body path: %v", lastPt.Names)
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1()
	for _, want := range []string{
		"return-value emulation", "argument-buffer", "special emulation",
		"epoll_wait", "ioctl", "recv", "localtime_r", "writev",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	// Orderings the paper's Table 2 exhibits.
	if res.HeapScanUS <= res.DataScanUS {
		t.Errorf("heap scan (%.1fus) must dominate data scan (%.1fus)", res.HeapScanUS, res.DataScanUS)
	}
	if res.HeapScanUS <= res.DupUS {
		t.Errorf("heap scan (%.1fus) must dominate duplication (%.1fus)", res.HeapScanUS, res.DupUS)
	}
	if res.ForkUS <= res.CloneUS*10 {
		t.Errorf("fork (%.1fus) must dwarf clone (%.1fus)", res.ForkUS, res.CloneUS)
	}
	if res.ForkInitUS <= res.ForkUS {
		t.Errorf("fork during init (%.1fus) must exceed empty fork (%.1fus)", res.ForkInitUS, res.ForkUS)
	}
	// Calibrated absolute values for the cheap rows.
	if res.CloneUS < 5 || res.CloneUS > 20 {
		t.Errorf("clone = %.1fus, paper 9.5us", res.CloneUS)
	}
	if res.DupUS < 5 || res.DupUS > 40 {
		t.Errorf("dup = %.1fus, paper 14.7us", res.DupUS)
	}
	if res.ForkUS < 400 || res.ForkUS > 900 {
		t.Errorf("fork = %.1fus, paper 640us", res.ForkUS)
	}
}

func TestTable2HintsNarrowScan(t *testing.T) {
	res, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if res.HintedScanUS >= res.FullScanUS {
		t.Errorf("hinted scan (%.1fus) should be cheaper than full scan (%.1fus)", res.HintedScanUS, res.FullScanUS)
	}
	if res.PivotOnCycles <= res.PivotOffCycles {
		t.Errorf("the stack pivot (%d cycles) should cost more than no pivot (%d)", res.PivotOnCycles, res.PivotOffCycles)
	}
}

func TestCPUCyclesShape(t *testing.T) {
	res, err := CPUCycles(25)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: nginx subtree 60.8%, lighttpd 70%.
	if res.Nginx.SubtreePercent < 50 || res.Nginx.SubtreePercent > 85 {
		t.Errorf("nginx subtree = %.1f%%, paper 60.8%%", res.Nginx.SubtreePercent)
	}
	if res.Lighttpd.SubtreePercent < 55 || res.Lighttpd.SubtreePercent > 90 {
		t.Errorf("lighttpd subtree = %.1f%%, paper 70%%", res.Lighttpd.SubtreePercent)
	}
	// Selective replication saves CPU versus 200%.
	for _, s := range []CPUServer{res.Nginx, res.Lighttpd} {
		if s.AnalyticPercent >= s.TradPercent {
			t.Errorf("%s analytic CPU %.0f%% should undercut traditional 200%%", s.Name, s.AnalyticPercent)
		}
		if s.AnalyticPercent < 140 || s.AnalyticPercent > 195 {
			t.Errorf("%s analytic CPU = %.0f%%, paper ~160-170%%", s.Name, s.AnalyticPercent)
		}
	}
	if !strings.Contains(res.FlameNginx, "ngx_http_process_request_line") {
		t.Error("flame graph missing the protected function")
	}
}

func TestMemoryShape(t *testing.T) {
	res, err := Memory(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []MemServer{res.Nginx, res.Lighttpd} {
		if s.SMVXKB <= s.VanillaKB {
			t.Errorf("%s: follower must add RSS (%d vs %d)", s.Name, s.SMVXKB, s.VanillaKB)
		}
		if s.SMVXKB >= s.TradKB {
			t.Errorf("%s: sMVX (%dKB) must undercut 2x vanilla (%dKB)", s.Name, s.SMVXKB, s.TradKB)
		}
		// Traditional MVX is two independent vanilla instances of one
		// deterministic workload: exactly twice the vanilla RSS.
		if s.TradKB != 2*s.VanillaKB {
			t.Errorf("%s: 2 instances = %dKB, want 2x %dKB", s.Name, s.TradKB, s.VanillaKB)
		}
		// Paper: ~49% saved; accept a generous band around it.
		if s.SavedPercent < 25 || s.SavedPercent > 60 {
			t.Errorf("%s saved = %.0f%%, paper ~49%%", s.Name, s.SavedPercent)
		}
	}
	// Paper: nginx's RSS exceeds lighttpd's under MVX.
	if res.Nginx.SMVXKB <= 0 || res.Lighttpd.SMVXKB <= 0 {
		t.Error("zero RSS measured")
	}
}

// TestTwoInstancesDoubleResources checks the traditional-MVX baseline of
// the resource experiments: two vanilla instances fed the same workload
// through the start path use exactly twice one instance's CPU and RSS.
func TestTwoInstancesDoubleResources(t *testing.T) {
	const requests = 5
	for _, a := range []httpApp{nginxApp, lighttpdApp} {
		var cpu [3]clock.Cycles
		var rss [3]int
		for i := range cpu {
			r, err := a.serve(Vanilla, "", requests, nil)
			if err != nil {
				t.Fatal(err)
			}
			cpu[i], rss[i] = r.Env.Counter.Cycles(), r.Env.ResidentKB()
		}
		// Run 0 is the single instance; runs 1 and 2 are the pair.
		if two := rss[1] + rss[2]; two != 2*rss[0] {
			t.Errorf("%s RSS: 2 instances = %dKB, want 2x %dKB", a.name, two, rss[0])
		}
		if two := cpu[1] + cpu[2]; two != 2*cpu[0] {
			t.Errorf("%s CPU: 2 instances = %d, want 2x %d", a.name, two, cpu[0])
		}
		if cpu[1] != cpu[2] {
			t.Errorf("%s per-instance CPU should match: %d vs %d", a.name, cpu[1], cpu[2])
		}
	}
}

func TestCVEAllOutcomes(t *testing.T) {
	res, err := CVE()
	if err != nil {
		t.Fatal(err)
	}
	if !res.VanillaPwned || !res.VanillaCrashed {
		t.Errorf("exploit must succeed on vanilla 1.3.9: %+v", res)
	}
	if !res.SMVXDetected {
		t.Errorf("sMVX must detect the exploit: %+v", res)
	}
	if !strings.Contains(res.SMVXAlarm, "unmapped") {
		t.Errorf("detection should be a fault at an address unmapped in the follower's view: %q", res.SMVXAlarm)
	}
	if !res.FixedSurvives {
		t.Error("the fixed version must survive")
	}
	if len(res.Chain) != 3 {
		t.Errorf("3-gadget chain expected: %v", res.Chain)
	}
}

// TestFigure8AndCPUDeterministicUnderConcurrency runs Figure 8 and the CPU
// experiment eight times each, all at once, and requires every run of each
// to render the same bytes. The libc observer and the profiler attach
// before the worker's first instruction, so no run can miss the calls its
// worker makes while a hook is being installed.
func TestFigure8AndCPUDeterministicUnderConcurrency(t *testing.T) {
	const runs, requests = 8, 5
	fig8 := make([]string, runs)
	cpu := make([]string, runs)
	errs := make(chan error, 2*runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			res, err := Figure8(requests)
			if err != nil {
				errs <- err
				return
			}
			fig8[i] = res.String()
		}(i)
		go func(i int) {
			defer wg.Done()
			res, err := CPUCycles(requests)
			if err != nil {
				errs <- err
				return
			}
			cpu[i] = res.String() + res.FlameNginx
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 1; i < runs; i++ {
		if fig8[i] != fig8[0] {
			t.Errorf("fig8 run %d differs from run 0:\n%s\nrun 0:\n%s", i, fig8[i], fig8[0])
		}
		if cpu[i] != cpu[0] {
			t.Errorf("cpu run %d differs from run 0:\n%s\nrun 0:\n%s", i, cpu[i], cpu[0])
		}
	}
}
