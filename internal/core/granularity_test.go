package core

import (
	"strings"
	"testing"

	"smvx/internal/boot"
	"smvx/internal/libc"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// The syscall posture is ReMon's: the monitor at syscall granularity with
// main as the region root, so the whole program is replicated, its
// followers cloned before main runs.

// wholeProgramApp boots a small program whose main is body.
func wholeProgramApp(t *testing.T, body func(th *machine.Thread, args []uint64) uint64) *boot.Env {
	t.Helper()
	img := image.NewBuilder("remonapp", 0x400000).
		AddFunc("main", 256).
		AddFunc("diverge", 128).
		AddData("g_time", 8, nil).
		AddData("g_time2", 8, nil).
		AddBSS("g_buf", 4096).
		NeedLibc(libc.Names()...).
		Build()
	env, err := boot.NewEnv(kernel.New(clock.DefaultCosts(), 5), machine.NewProgram(img), boot.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	env.Prog.MustDefine("main", body)
	return env
}

// runWholeProgram runs main as one protected region of a syscall-posture
// monitor with opts, and returns the monitor and the leader's error.
func runWholeProgram(t *testing.T, env *boot.Env, opts ...Option) (*Monitor, error) {
	t.Helper()
	mon := New(env.Machine, env.LibC, append([]Option{WithSeed(5), WithSyscallGranularity()}, opts...)...)
	th, err := env.MainThread()
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	return mon, th.Run(func(t *machine.Thread) { mon.Invoke(t, "main") })
}

func hasAlarm(mon *Monitor, r AlarmReason) bool {
	for _, a := range mon.Alarms() {
		if a.Reason == r {
			return true
		}
	}
	return false
}

// TestSyscallPostureSyncsOnlyKernelCalls: gettimeofday, open, write and
// close rendezvous, the leader alone reaches the kernel and the follower
// gets the emulated results; malloc and free run in each variant with no
// monitor involvement.
func TestSyscallPostureSyncsOnlyKernelCalls(t *testing.T) {
	env := wholeProgramApp(t, func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		th.Libc("gettimeofday", uint64(g), 0)
		sec := th.Load64(g)
		if th.Variant() == 0 {
			th.Store64(th.Global("g_time"), sec)
		} else {
			th.Store64(th.Global("g_time2"), sec)
		}
		p := th.Libc("malloc", 128)
		th.Store64(mem.Addr(p), 1)
		th.Libc("free", p)
		path := g + 256
		th.WriteCString(path, "/remon.txt")
		fd := th.Libc("open", uint64(path), uint64(kernel.OCreat|kernel.OWronly))
		msg := g + 512
		th.WriteCString(msg, "one")
		th.Libc("write", fd, uint64(msg), 3)
		th.Libc("close", fd)
		return sec
	})
	mon, err := runWholeProgram(t, env)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a := mon.Alarms(); len(a) != 0 {
		t.Fatalf("alarms: %v", a)
	}
	leaderTime, _ := env.AS.Read64(mustSym(t, env, "g_time"))
	followerTime, _ := env.AS.Read64(mem.Addr(int64(mustSym(t, env, "g_time2")) + FollowerDelta))
	if leaderTime == 0 || leaderTime != followerTime {
		t.Errorf("time: leader=%d follower=%d", leaderTime, followerTime)
	}
	if data, _ := env.Kernel.FS().ReadFile("/remon.txt"); string(data) != "one" {
		t.Errorf("file = %q, want one write", data)
	}
	if reps := mon.Reports(); len(reps) != 1 || reps[0].LibcCalls != 4 {
		t.Errorf("reports = %+v, want one region of 4 monitored calls", reps)
	}
	if n := env.LibC.CallCount("malloc"); n != 2 {
		t.Errorf("malloc ran %d times, want once per variant", n)
	}
}

// TestSyscallPostureDivergenceRaisesAlarm: the variants issue different
// system calls at the same rendezvous.
func TestSyscallPostureDivergenceRaisesAlarm(t *testing.T) {
	env := wholeProgramApp(t, func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		if th.Variant() == 0 {
			th.Libc("gettimeofday", uint64(g), 0)
		} else {
			th.WriteCString(g, "/x")
			th.Libc("open", uint64(g), 0)
		}
		return 0
	})
	mon, err := runWholeProgram(t, env)
	if err != nil {
		t.Fatalf("leader should survive: %v", err)
	}
	if !hasAlarm(mon, AlarmCallMismatch) {
		t.Fatalf("alarms = %v, want a call mismatch", mon.Alarms())
	}
}

// TestSyscallPostureFollowerFaultRaisesAlarm: the follower dereferences an
// address unmapped in its view, as a hijacked variant would.
func TestSyscallPostureFollowerFaultRaisesAlarm(t *testing.T) {
	var gbuf mem.Addr
	env := wholeProgramApp(t, func(th *machine.Thread, args []uint64) uint64 {
		if th.Variant() != 0 {
			return th.Call("diverge")
		}
		th.Libc("gettimeofday", uint64(th.Global("g_buf")), 0)
		return 0
	})
	gbuf = mustSym(t, env, "g_buf")
	env.Prog.MustDefine("diverge", func(th *machine.Thread, args []uint64) uint64 {
		return th.Load64(gbuf + 0x2000_0000)
	})
	mon, err := runWholeProgram(t, env)
	if err != nil {
		t.Fatalf("leader: %v", err)
	}
	if !hasAlarm(mon, AlarmFollowerFault) {
		t.Errorf("alarms = %v, want a follower fault", mon.Alarms())
	}
}

// TestSyscallPostureWholeProgramCloneDoublesRSS: replicating the whole
// program roughly doubles the application's resident memory, while the
// shared libraries stay mapped once.
func TestSyscallPostureWholeProgramCloneDoublesRSS(t *testing.T) {
	env := wholeProgramApp(t, func(th *machine.Thread, args []uint64) uint64 {
		th.Libc("gettimeofday", uint64(th.Global("g_buf")), 0)
		return 0
	})
	isLib := func(region string) bool { return strings.HasPrefix(region, "lib:") }
	isApp := func(region string) bool { return !isLib(region) && !strings.HasPrefix(region, "smvx:") }
	app, lib := env.AS.ResidentKBIn(isApp), env.AS.ResidentKBIn(isLib)
	if _, err := runWholeProgram(t, env); err != nil {
		t.Fatal(err)
	}
	if got := env.AS.ResidentKBIn(isApp); got < 2*app-8 {
		t.Errorf("app RSS %dKB -> %dKB: a whole-program clone should about double it", app, got)
	}
	if got := env.AS.ResidentKBIn(isLib); got != lib {
		t.Errorf("library RSS %dKB -> %dKB: libraries are not replicated", lib, got)
	}
}

// TestSyscallPostureCPMonCostsPtraceStop: open is in ReMon's ptrace-
// monitored subset and close is not, so their two rendezvous cost one
// ptrace stop and one in-process rendezvous.
func TestSyscallPostureCPMonCostsPtraceStop(t *testing.T) {
	env := wholeProgramApp(t, func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		th.WriteCString(g, "/f")
		fd := th.Libc("open", uint64(g), uint64(kernel.OCreat|kernel.OWronly))
		th.Libc("close", fd)
		return 0
	})
	led := ledger.New()
	if _, err := runWholeProgram(t, env, WithLedger(led)); err != nil {
		t.Fatal(err)
	}
	var got uint64
	for _, rs := range led.Snapshot().Regions {
		for _, c := range rs.Cells {
			if c.Phase == ledger.PhaseRendezvous.String() && c.Variant == "leader" {
				got += c.Cycles
			}
		}
	}
	if want := uint64(env.Costs.PtraceStop + env.Costs.LockstepRendezvous); got != want {
		t.Errorf("rendezvous cycles = %d, want PtraceStop + LockstepRendezvous = %d", got, want)
	}
}
