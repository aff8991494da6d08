package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"smvx/internal/boot"
	"smvx/internal/libc"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// testApp builds a small instrumented application with a protected region.
// opts are added to the boot options.
func testApp(t testing.TB, opts ...boot.Option) (*boot.Env, *Monitor) {
	t.Helper()
	img := image.NewBuilder("testapp", 0x400000).
		AddFunc("main", 128).
		AddFunc("protected_func", 512).
		AddFunc("diverge_call", 128).
		AddFunc("diverge_arg", 128).
		AddFunc("hijack_func", 256).
		AddFunc("stale_ptr_func", 128).
		AddData("g_leader_time", 8, nil).
		AddData("g_follower_time", 8, nil).
		AddData("g_ptr", 8, nil).
		AddData("g_hidden", 8, nil).
		AddData("g_data_target", 64, []byte("target")).
		AddBSS("g_buf", 4096).
		NeedLibc(libc.Names()...).
		Build()
	prog := machine.NewProgram(img)
	env, err := boot.NewEnv(kernel.New(clock.DefaultCosts(), 11), prog, append([]boot.Option{boot.WithSeed(11)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	mon := New(env.Machine, env.LibC, WithSeed(11))
	return env, mon
}

func TestSetupRequiresProfile(t *testing.T) {
	img := image.NewBuilder("noprofile", 0x400000).AddFunc("main", 64).NeedLibc("write").Build()
	prog := machine.NewProgram(img)
	env, err := boot.NewEnv(kernel.New(clock.DefaultCosts(), 1), prog, boot.WithoutProfile())
	if err != nil {
		t.Fatal(err)
	}
	mon := New(env.Machine, env.LibC)
	if err := mon.Setup(); !errors.Is(err, ErrNoProfile) {
		t.Errorf("Setup without profile = %v, want ErrNoProfile", err)
	}
}

func TestSetupPatchesPLTAndHidesTrampoline(t *testing.T) {
	env, mon := testApp(t)
	if err := mon.Setup(); err != nil {
		t.Fatal(err)
	}
	// Every GOT slot now points into the trampoline page.
	for i := range env.Img.PLTSlots() {
		v, err := env.AS.Read64(env.Img.GOTSlotAddr(i))
		if err != nil {
			t.Fatal(err)
		}
		if mem.Addr(v) < mon.TrampolineBase() || mem.Addr(v) >= mon.TrampolineBase()+mem.PageSize {
			t.Errorf("got slot %d = %#x, not in trampoline page %s", i, v, mon.TrampolineBase())
		}
	}
	// The trampoline is execute-only: reads fault (XoM), fetch succeeds.
	if err := env.AS.ReadAt(mon.TrampolineBase(), make([]byte, 8)); err == nil {
		t.Error("trampoline page must be execute-only (XoM)")
	}
	if err := env.AS.CheckExec(mon.TrampolineBase()); err != nil {
		t.Errorf("trampoline must remain executable: %v", err)
	}
	// Setup is idempotent.
	if err := mon.Setup(); err != nil {
		t.Errorf("second Setup: %v", err)
	}
}

func TestTrampolineRandomized(t *testing.T) {
	_, mon1 := testApp(t)
	if err := mon1.Setup(); err != nil {
		t.Fatal(err)
	}
	img := image.NewBuilder("testapp", 0x400000).AddFunc("main", 64).NeedLibc("write").Build()
	prog := machine.NewProgram(img)
	env2, _ := boot.NewEnv(kernel.New(clock.DefaultCosts(), 2), prog)
	mon2 := New(env2.Machine, env2.LibC, WithSeed(999))
	if err := mon2.Setup(); err != nil {
		t.Fatal(err)
	}
	if mon1.TrampolineBase() == mon2.TrampolineBase() {
		t.Error("trampoline location must be randomized across seeds")
	}
}

func TestMonitorDataHiddenFromApp(t *testing.T) {
	env, mon := testApp(t)
	if err := mon.Setup(); err != nil {
		t.Fatal(err)
	}
	th, _ := env.Machine.NewThread("app", 0)
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	// Application PKRU must not read monitor data.
	if err := env.AS.CheckedReadAt(mon.monDataBase, make([]byte, 8), th.PKRU()); err == nil {
		t.Error("application could read monitor data despite MPK")
	}
	// Monitor PKRU can.
	if err := env.AS.CheckedReadAt(mon.monDataBase, make([]byte, 8), mon.monPKRU()); err != nil {
		t.Errorf("monitor read own data: %v", err)
	}
}

func TestStartWithoutSetupFails(t *testing.T) {
	env, mon := testApp(t)
	th, _ := env.Machine.NewThread("app", 0)
	if err := mon.Start(th, "protected_func"); !errors.Is(err, ErrNotSetup) {
		t.Errorf("Start before Setup = %v, want ErrNotSetup", err)
	}
	if err := mon.End(th); !errors.Is(err, ErrNoRegion) {
		t.Errorf("End without region = %v, want ErrNoRegion", err)
	}
}

func TestStartUnknownFunctionFails(t *testing.T) {
	env, mon := testApp(t)
	th, _ := env.Machine.NewThread("app", 0)
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(th, "no_such_func"); err == nil {
		t.Error("Start of unknown function should fail")
	}
}

// defineProtected registers the well-behaved protected function: libc calls
// from all three Table 1 categories, identical in both variants.
func defineProtected(t *testing.T, env *boot.Env) {
	t.Helper()
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		// CatRetBuf: gettimeofday — time must be emulated, not re-read.
		th.Libc("gettimeofday", uint64(g), 0)
		sec := th.Load64(g)
		if th.Bias() == 0 {
			th.Store64(th.Global("g_leader_time"), sec)
		} else {
			th.Store64(th.Global("g_follower_time"), sec)
		}
		// CatLocal: malloc/free run in each variant's own space.
		p := th.Libc("malloc", 64)
		th.Store64(mem.Addr(p), 0x1234)
		th.Libc("free", p)
		// CatRetOnly: open/write/close — leader-only execution.
		path := g + 256
		th.WriteCString(path, "/out.txt")
		fd := th.Libc("open", uint64(path), uint64(kernel.OCreat|kernel.OWronly))
		msg := g + 512
		th.WriteCString(msg, "once")
		th.Libc("write", fd, uint64(msg), 4)
		th.Libc("close", fd)
		return sec
	})
}

func TestLockstepIdenticalExecutionNoAlarm(t *testing.T) {
	env, mon := testApp(t)
	defineProtected(t, env)
	th, _ := env.Machine.NewThread("main", 0)
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	err := th.Run(func(tt *machine.Thread) {
		if err := mon.Start(tt, "protected_func"); err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		tt.Call("protected_func")
		if err := mon.End(tt); err != nil {
			t.Errorf("End: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("leader crashed: %v", err)
	}
	if alarms := mon.Alarms(); len(alarms) != 0 {
		t.Fatalf("alarms on identical execution: %v", alarms)
	}
	reports := mon.Reports()
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	rep := reports[0]
	if rep.Diverged || rep.FollowerErr != nil {
		t.Errorf("report = %+v", rep)
	}
	if rep.LibcCalls != 6 {
		t.Errorf("LibcCalls = %d, want 6", rep.LibcCalls)
	}
	// Time was emulated: both variants observed the same instant.
	lt, _ := env.AS.Read64(mustSym(t, env, "g_leader_time"))
	ftAddr := mem.Addr(int64(mustSym(t, env, "g_follower_time")) + FollowerDelta)
	ft, _ := env.AS.Read64(ftAddr)
	if lt == 0 || lt != ft {
		t.Errorf("emulated time mismatch: leader=%d follower=%d", lt, ft)
	}
	// Leader-only write: the file holds the payload exactly once.
	data, _ := env.Kernel.FS().ReadFile("/out.txt")
	if string(data) != "once" {
		t.Errorf("file = %q, want %q (leader-only write)", data, "once")
	}
}

func mustSym(t *testing.T, env *boot.Env, name string) mem.Addr {
	t.Helper()
	sym, ok := env.Img.Lookup(name)
	if !ok {
		t.Fatalf("symbol %s missing", name)
	}
	return sym.Addr
}

func TestDivergentCallSequenceRaisesAlarm(t *testing.T) {
	env, mon := testApp(t)
	env.Prog.MustDefine("diverge_call", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		if th.Bias() == 0 {
			th.Libc("gettimeofday", uint64(g), 0)
		} else {
			th.Libc("time", 0) // different libc call at the same index
		}
		return 0
	})
	th, _ := env.Machine.NewThread("main", 0)
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	_ = th.Run(func(tt *machine.Thread) {
		_ = mon.Start(tt, "diverge_call")
		tt.Call("diverge_call")
		_ = mon.End(tt)
	})
	alarms := mon.Alarms()
	if len(alarms) == 0 {
		t.Fatal("no alarm on divergent call sequence")
	}
	if alarms[0].Reason != AlarmCallMismatch {
		t.Errorf("reason = %v, want AlarmCallMismatch", alarms[0].Reason)
	}
	if !strings.Contains(alarms[0].Detail, "gettimeofday") {
		t.Errorf("detail = %q", alarms[0].Detail)
	}
	if reps := mon.Reports(); len(reps) != 1 || !reps[0].Diverged {
		t.Errorf("report should record divergence: %+v", reps)
	}
}

func TestDivergentScalarArgRaisesAlarm(t *testing.T) {
	env, mon := testApp(t)
	env.Prog.MustDefine("diverge_arg", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		th.WriteCString(g, "/f")
		flags := uint64(kernel.OCreat | kernel.OWronly)
		if th.Bias() != 0 {
			flags = 0 // same call, different scalar argument
		}
		th.Libc("open", uint64(g), flags)
		return 0
	})
	th, _ := env.Machine.NewThread("main", 0)
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	_ = th.Run(func(tt *machine.Thread) {
		_ = mon.Start(tt, "diverge_arg")
		tt.Call("diverge_arg")
		_ = mon.End(tt)
	})
	alarms := mon.Alarms()
	if len(alarms) == 0 || alarms[0].Reason != AlarmArgMismatch {
		t.Fatalf("alarms = %v, want AlarmArgMismatch", alarms)
	}
}

func TestHijackDetectedByFollowerFault(t *testing.T) {
	env, mon := testApp(t)
	// The "payload" plants an absolute leader-space gadget address over
	// the saved return address — the same absolute value in both variants,
	// as an attacker's payload bytes would be.
	vulnSym, _ := env.Img.Lookup("hijack_func")
	gadget := findGadget(t, env, vulnSym, image.OpPopRDI)
	mkdirSlot, ok := env.Img.PLTSlot("mkdir")
	if !ok {
		t.Fatal("no mkdir PLT slot")
	}
	mkdirPLT := env.Img.PLTEntryAddr(mkdirSlot)
	strAddr := mustSym(t, env, "g_data_target") // points at "target"

	env.Prog.MustDefine("hijack_func", func(th *machine.Thread, args []uint64) uint64 {
		buf := th.Alloca(16)
		payload := make([]byte, 0, 64)
		payload = append(payload, le(0x41414141)...)
		payload = append(payload, le(0x42424242)...)
		payload = append(payload, le(uint64(gadget))...)   // pop rdi; ret
		payload = append(payload, le(uint64(strAddr))...)  // rdi = "/..." path
		payload = append(payload, le(uint64(mkdirPLT))...) // jmp mkdir@plt
		payload = append(payload, le(0)...)                // chain end
		th.WriteBytes(buf, payload)
		return 0
	})
	env.Prog.MustDefine("main", func(th *machine.Thread, args []uint64) uint64 {
		return th.Call("hijack_func")
	})

	// Give the ROP chain a real string target: point g_data_target's first
	// bytes at a path.
	_ = env.AS.WriteAt(strAddr, append([]byte("/pwned"), 0))

	th, _ := env.Machine.NewThread("main", 0)
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	err := th.Run(func(tt *machine.Thread) {
		_ = mon.Start(tt, "hijack_func")
		tt.Call("main")
		_ = mon.End(tt)
	})
	// The leader's chain executes mkdir then crashes at the 0 sentinel.
	if err == nil {
		t.Error("leader should crash at chain end")
	}
	if !env.Kernel.FS().DirExists("/pwned") {
		t.Error("leader's ROP chain should have executed mkdir (exploit works on one variant)")
	}
	// The follower faulted at the leader-space gadget: alarm raised.
	var sawFault bool
	for _, a := range mon.Alarms() {
		if a.Reason == AlarmFollowerFault {
			sawFault = true
		}
	}
	if !sawFault {
		t.Errorf("no follower-fault alarm; alarms = %v", mon.Alarms())
	}
}

func findGadget(t *testing.T, env *boot.Env, sym image.Symbol, op byte) mem.Addr {
	t.Helper()
	body := make([]byte, sym.Size)
	if err := env.AS.FetchCode(sym.Addr, body); err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(body); i++ {
		if body[i] == op && body[i+1] == image.OpRet {
			return sym.Addr + mem.Addr(i)
		}
	}
	t.Fatalf("no gadget %#x;ret in %s", op, sym.Name)
	return 0
}

func le(v uint64) []byte {
	return []byte{
		byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
		byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56),
	}
}

func TestStalePointerFaultsInFollower(t *testing.T) {
	env, mon := testApp(t)
	// Hide a leader-space pointer from the scanner by storing it XORed;
	// the follower decodes and dereferences it, hitting leader memory.
	target := mustSym(t, env, "g_data_target")
	const mask = 0xA5A5A5A5A5A5A5A5
	env.Prog.MustDefine("stale_ptr_func", func(th *machine.Thread, args []uint64) uint64 {
		hidden := th.Global("g_hidden")
		if th.Load64(hidden) == 0 {
			th.Store64(hidden, uint64(target)^mask)
		}
		ptr := mem.Addr(th.Load64(hidden) ^ mask)
		return th.Load64(ptr) // follower: pkey fault on leader .data
	})
	th, _ := env.Machine.NewThread("main", 0)
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	// Prime g_hidden before the region so the clone carries it.
	err := th.Run(func(tt *machine.Thread) {
		tt.Call("stale_ptr_func")
		_ = mon.Start(tt, "stale_ptr_func")
		tt.Call("stale_ptr_func")
		_ = mon.End(tt)
	})
	if err != nil {
		t.Fatalf("leader must not crash: %v", err)
	}
	var sawFault bool
	for _, a := range mon.Alarms() {
		if a.Reason == AlarmFollowerFault && strings.Contains(a.Detail, "pkey") {
			sawFault = true
		}
	}
	if !sawFault {
		t.Errorf("expected follower pkey fault on stale pointer; alarms = %v", mon.Alarms())
	}
}

func TestPointerRelocationInDataAndHeap(t *testing.T) {
	env, mon := testApp(t)
	target := mustSym(t, env, "g_data_target")
	gptr := mustSym(t, env, "g_ptr")

	var heapBlock mem.Addr
	env.Prog.MustDefine("main", func(th *machine.Thread, args []uint64) uint64 {
		// A global pointing at a global (in .data).
		th.Store64(th.Global("g_ptr"), uint64(target))
		// A heap block holding a pointer to the image.
		p := mem.Addr(th.Libc("malloc", 64))
		heapBlock = p
		th.Store64(p, uint64(target))
		return 0
	})
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		return 0
	})
	th, _ := env.Machine.NewThread("main", 0)
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	err := th.Run(func(tt *machine.Thread) {
		tt.Call("main")
		if err := mon.Start(tt, "protected_func"); err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		tt.Call("protected_func")
		_ = mon.End(tt)
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := mon.LastCreation()
	if stats.PointersRelocated < 2 {
		t.Errorf("PointersRelocated = %d, want >= 2", stats.PointersRelocated)
	}
	// The follower's .data slot was rebased.
	v, err := env.AS.Read64(mem.Addr(int64(gptr) + FollowerDelta))
	if err != nil {
		t.Fatal(err)
	}
	if mem.Addr(v) != mem.Addr(int64(target)+FollowerDelta) {
		t.Errorf("relocated g_ptr = %#x, want %#x", v, int64(target)+FollowerDelta)
	}
	// The follower's heap slot was rebased too.
	hv, err := env.AS.Read64(mem.Addr(int64(heapBlock) + FollowerDelta))
	if err != nil {
		t.Fatal(err)
	}
	if mem.Addr(hv) != mem.Addr(int64(target)+FollowerDelta) {
		t.Errorf("relocated heap ptr = %#x", hv)
	}
	// Table 2 shape: heap scan dominates data scan; clone is cheap.
	if stats.HeapScanCycles == 0 || stats.DataScanCycles == 0 {
		t.Error("scan cycle accounting missing")
	}
	if stats.CloneCycles < env.Costs.ThreadClone {
		t.Errorf("CloneCycles = %d", stats.CloneCycles)
	}
}

func TestRSSGrowsWithFollowerAndShrinksOnDestroy(t *testing.T) {
	env, mon := testApp(t)
	defineProtected(t, env)
	th, _ := env.Machine.NewThread("main", 0)
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	before := env.ResidentKB()
	err := th.Run(func(tt *machine.Thread) {
		_ = mon.Start(tt, "protected_func")
		tt.Call("protected_func")
		_ = mon.End(tt)
	})
	if err != nil {
		t.Fatal(err)
	}
	during := env.ResidentKB()
	if during <= before {
		t.Errorf("RSS with follower (%dKB) should exceed vanilla (%dKB)", during, before)
	}
	// Selective replication: the follower's share is well under a full 2x.
	if during >= before*2 {
		t.Errorf("follower RSS share too large: %dKB -> %dKB", before, during)
	}
	mon.DestroyFollower()
	after := env.ResidentKB()
	if after >= during {
		t.Errorf("DestroyFollower did not release memory: %dKB -> %dKB", during, after)
	}
}

// TestRepeatedRegionsReuseWindow: back-to-back regions reuse the follower
// windows at N=2 and N=3, and each region's teardown reclaims everything
// its followers mapped, their trampoline safe stacks included, so the
// region table is as long after the last region as after the first.
func TestRepeatedRegionsReuseWindow(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			env, _ := testApp(t)
			mon := New(env.Machine, env.LibC, WithSeed(11), WithVariants(n))
			defineProtected(t, env)
			th, _ := env.Machine.NewThread("main", 0)
			if err := mon.Init(th); err != nil {
				t.Fatal(err)
			}
			var tables []int // region-table length after each region
			err := th.Run(func(tt *machine.Thread) {
				for i := 0; i < 3; i++ {
					if err := mon.Start(tt, "protected_func"); err != nil {
						t.Errorf("Start #%d: %v", i, err)
						return
					}
					tt.Call("protected_func")
					if err := mon.End(tt); err != nil {
						t.Errorf("End #%d: %v", i, err)
						return
					}
					tables = append(tables, len(env.AS.Regions()))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if alarms := mon.Alarms(); len(alarms) != 0 {
				t.Fatalf("alarms across repeated regions: %v", alarms)
			}
			if got := mon.RegionLibcCalls()["protected_func"]; got != 18 {
				t.Errorf("RegionLibcCalls = %d, want 18 (3 regions x 6 calls)", got)
			}
			if len(mon.Reports()) != 3 {
				t.Errorf("reports = %d, want 3", len(mon.Reports()))
			}
			if len(tables) == 3 && tables[2] != tables[0] {
				t.Errorf("region table holds %v regions after each region, want it to stay the same size", tables)
			}
		})
	}
}

// TestStartFailureReclaimsPartialClones: a Start that fails after cloning
// part of the image (here the heap clone is blocked by an existing mapping)
// unmaps what it mapped, so once the blocker is gone the next region is
// protected normally instead of failing on the stale clones.
func TestStartFailureReclaimsPartialClones(t *testing.T) {
	env, mon := testApp(t)
	defineProtected(t, env)
	th, _ := env.Machine.NewThread("main", 0)
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	blocker := mon.leaderHeapBase() + mem.Addr(FollowerDelta)
	if _, err := env.AS.Map(mem.Region{Name: "blocker", Base: blocker, Size: mem.PageSize, Perm: mem.PermRW}); err != nil {
		t.Fatal(err)
	}
	before := len(env.AS.Regions())
	err := th.Run(func(tt *machine.Thread) {
		if err := mon.Start(tt, "protected_func"); err == nil {
			t.Error("Start with the heap window blocked succeeded")
			_ = mon.End(tt)
			return
		}
		if after := len(env.AS.Regions()); after != before {
			t.Errorf("failed Start left %d regions mapped, want %d", after, before)
		}
		if err := env.AS.Unmap(blocker); err != nil {
			t.Error(err)
			return
		}
		if err := mon.Start(tt, "protected_func"); err != nil {
			t.Errorf("Start after the blocker is gone: %v", err)
			return
		}
		tt.Call("protected_func")
		if err := mon.End(tt); err != nil {
			t.Errorf("End: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("leader crashed: %v", err)
	}
	if alarms := mon.Alarms(); len(alarms) != 0 {
		t.Errorf("alarms: %v", alarms)
	}
	if n := len(mon.Reports()); n != 1 {
		t.Errorf("reports = %d, want 1", n)
	}
}

func TestNestedStartRejected(t *testing.T) {
	env, mon := testApp(t)
	defineProtected(t, env)
	th, _ := env.Machine.NewThread("main", 0)
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	_ = th.Run(func(tt *machine.Thread) {
		_ = mon.Start(tt, "protected_func")
		if err := mon.Start(tt, "protected_func"); !errors.Is(err, ErrRegionActive) {
			t.Errorf("nested Start = %v, want ErrRegionActive", err)
		}
		tt.Call("protected_func")
		_ = mon.End(tt)
	})
}

func TestScanHintsNarrowDataScan(t *testing.T) {
	// With hints, only the hinted global is scanned: cheaper, and pointers
	// outside the hinted slots stay stale.
	env, _ := testApp(t)
	mon := New(env.Machine, env.LibC, WithSeed(11), WithScanHints("g_ptr"))
	target := mustSym(t, env, "g_data_target")

	env.Prog.MustDefine("main", func(th *machine.Thread, args []uint64) uint64 {
		th.Store64(th.Global("g_ptr"), uint64(target))
		th.Store64(th.Global("g_hidden"), uint64(target)) // not hinted
		return 0
	})
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 { return 0 })
	th, _ := env.Machine.NewThread("main", 0)
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	err := th.Run(func(tt *machine.Thread) {
		tt.Call("main")
		_ = mon.Start(tt, "protected_func")
		tt.Call("protected_func")
		_ = mon.End(tt)
	})
	if err != nil {
		t.Fatal(err)
	}
	gptr := mustSym(t, env, "g_ptr")
	v, _ := env.AS.Read64(mem.Addr(int64(gptr) + FollowerDelta))
	if mem.Addr(v) != mem.Addr(int64(target)+FollowerDelta) {
		t.Error("hinted global not relocated")
	}
	gh := mustSym(t, env, "g_hidden")
	hv, _ := env.AS.Read64(mem.Addr(int64(gh) + FollowerDelta))
	if mem.Addr(hv) != target {
		t.Error("unhinted global should remain stale under hint-narrowed scan")
	}
}

func TestAlarmReasonStrings(t *testing.T) {
	// Exhaustive: every declared reason maps to its exact rendering, and the
	// table below must grow with the enum (the count check fails otherwise).
	want := map[AlarmReason]string{
		AlarmCallMismatch:      "libc call sequence mismatch",
		AlarmArgMismatch:       "libc argument mismatch",
		AlarmFollowerFault:     "follower variant fault",
		AlarmSequenceLength:    "libc call count mismatch",
		AlarmRendezvousTimeout: "rendezvous deadline exceeded",
		AlarmEmulationFault:    "follower emulation-buffer fault",
		AlarmOutvoted:          "variant outvoted",
	}
	seen := map[string]bool{}
	for r, s := range want {
		if got := r.String(); got != s {
			t.Errorf("AlarmReason(%d).String() = %q, want %q", r, got, s)
		}
		if seen[s] {
			t.Errorf("duplicate reason string %q", s)
		}
		seen[s] = true
	}
	// Walk the enum from the first declared value until String falls off the
	// table: every named reason must be covered above.
	n := 0
	for r := AlarmCallMismatch; r.String() != "unknown"; r++ {
		n++
	}
	if n != len(want) {
		t.Errorf("enum has %d named reasons, table covers %d", n, len(want))
	}
	if AlarmReason(99).String() != "unknown" {
		t.Error("out-of-range reason should stringify as unknown")
	}
}

func TestCustomDeltaAndNoPivot(t *testing.T) {
	// A non-default follower window and a pivot-less trampoline still
	// yield correct lockstep.
	env, _ := testApp(t)
	const delta = int64(0x1000_0000_0000)
	mon := New(env.Machine, env.LibC, WithSeed(11), WithDelta(delta), WithoutSafeStack())
	defineProtected(t, env)
	th, _ := env.Machine.NewThread("main", 0)
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	err := th.Run(func(tt *machine.Thread) {
		if err := mon.Start(tt, "protected_func"); err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		tt.Call("protected_func")
		_ = mon.End(tt)
	})
	if err != nil {
		t.Fatal(err)
	}
	if alarms := mon.Alarms(); len(alarms) != 0 {
		t.Fatalf("alarms: %v", alarms)
	}
	// The follower's writes landed in the custom window.
	ft := mem.Addr(int64(mustSym(t, env, "g_follower_time")) + delta)
	v, err := env.AS.Read64(ft)
	if err != nil || v == 0 {
		t.Errorf("follower state at custom delta: %v %v", v, err)
	}
}
