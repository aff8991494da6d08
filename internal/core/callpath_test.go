package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"smvx/internal/boot"
	"smvx/internal/obs"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// loopApp is testApp with a recorder wired through libc, the kernel and a
// monitor built with opts, and with protected_func(k) making k rounds of
// round's calls. On the leader, begin runs before the first round and end
// after the last (either may be nil).
func loopApp(tb testing.TB, round func(th *machine.Thread, g mem.Addr), begin, end func(), opts ...Option) (*boot.Env, *Monitor) {
	tb.Helper()
	rec := obs.NewRecorder(obs.Config{})
	env, _ := testApp(tb, boot.WithRecorder(rec))
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		leader := th.Bias() == 0
		if leader && begin != nil {
			begin()
		}
		for i := uint64(0); i < argAt(args, 0); i++ {
			round(th, g)
		}
		if leader && end != nil {
			end()
		}
		return 0
	})
	mon := New(env.Machine, env.LibC, append([]Option{WithSeed(11), WithRecorder(rec)}, opts...)...)
	return env, mon
}

// syncClassRound makes one call of each pipelined sync class:
// gettimeofday and time (pipelined: their results ride the ring), strlen
// of the empty string in the zeroed g_buf (local) and shutdown(-1,
// SHUT_RDWR) (a barrier: a ret-only call that changes state, though this
// one changes none, since it fails with EBADF). Under strict lockstep all
// four rendezvous, and gettimeofday and time are emulated.
func syncClassRound(th *machine.Thread, g mem.Addr) {
	th.Libc("gettimeofday", uint64(g), 0)
	th.Libc("strlen", uint64(g+256))
	th.Libc("time", uint64(g+16))
	th.Libc("shutdown", math.MaxUint64, 2)
}

const syncClassCalls = 4

// copyRound makes one memcpy and one memset of 256 bytes within g_buf:
// local calls that each variant runs in its own window, staged through
// its thread's copy buffer.
func copyRound(th *machine.Thread, g mem.Addr) {
	th.Libc("memcpy", uint64(g+512), uint64(g+1024), 256)
	th.Libc("memset", uint64(g+1536), 0x5a, 256)
}

const copyCalls = 2

// runLoop runs protected_func(k) on t, as a protected region when mon is
// non-nil; mvx_start hands the followers the same k.
func runLoop(tb testing.TB, t *machine.Thread, mon *Monitor, k int) {
	if mon != nil {
		if err := mon.Start(t, "protected_func", uint64(k)); err != nil {
			tb.Fatalf("Start: %v", err)
		}
	}
	t.Call("protected_func", uint64(k))
	if mon != nil {
		if err := mon.End(t); err != nil {
			tb.Fatalf("End: %v", err)
		}
	}
}

// TestLibcCallPathsAllocateNothing: once warm, one simulated libc call
// allocates nothing on the host — unprotected, through a strict rendezvous
// (N=2 and N=3), through a pipelined enqueue and drain with barriers
// (N=3, lag 16), either under PolicyRollback (N=2), or at ReMon's syscall
// granularity (strict N=2 and pipelined N=3, where strlen skips the
// monitor and shutdown pays a ptrace stop) — with a recorder attached.
// The copy cases run copyRound's memcpy and memset unprotected, strict and
// pipelined at N=3. Regions with extra calls are
// measured against the same regions without them, so variant creation and
// the other per-region costs cancel out. Allocations count on every
// goroutine, the followers' included. The variants run on one P: with
// two, the runtime's own per-P caches (the sudogs a blocking channel
// operation takes, the structs of new goroutines) refill whenever a
// goroutine blocks on one P and wakes on the other, which moved a region
// set's count by −11 to +12 allocations either way under load, while on
// one P the two sets allocated exactly alike in 48 of 48 runs.
func TestLibcCallPathsAllocateNothing(t *testing.T) {
	const regions, base, extra = 4, 8, 64
	pipelinedN3 := []Option{WithLockstepMode(LockstepPipelined), WithVariants(3)}
	cases := []struct {
		name  string
		round func(th *machine.Thread, g mem.Addr)
		calls int // libc calls per round
		// protect runs the rounds in protected regions; barriers: every
		// round must run at least one pipelined barrier rendezvous.
		protect, barriers bool
		opts              []Option
	}{
		{"unprotected", syncClassRound, syncClassCalls, false, false, nil},
		{"strict", syncClassRound, syncClassCalls, true, false, nil},
		{"strict-n3", syncClassRound, syncClassCalls, true, false, []Option{WithVariants(3)}},
		{"pipelined-n3", syncClassRound, syncClassCalls, true, true, pipelinedN3},
		// Only the entry checkpoint: the extra rounds add no capture.
		{"rollback", syncClassRound, syncClassCalls, true, false, []Option{WithPolicy(PolicyRollback), WithSnapshotInterval(0)}},
		{"rollback-pipelined", syncClassRound, syncClassCalls, true, true, []Option{WithPolicy(PolicyRollback), WithSnapshotInterval(0),
			WithLockstepMode(LockstepPipelined)}},
		{"syscall-strict", syncClassRound, syncClassCalls, true, false, []Option{WithSyscallGranularity()}},
		{"syscall-pipelined-n3", syncClassRound, syncClassCalls, true, true, []Option{WithSyscallGranularity(),
			WithLockstepMode(LockstepPipelined), WithVariants(3)}},
		{"unprotected-copy", copyRound, copyCalls, false, false, nil},
		{"strict-copy", copyRound, copyCalls, true, false, nil},
		{"pipelined-n3-copy", copyRound, copyCalls, true, false, pipelinedN3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			env, mon := loopApp(t, c.round, nil, nil, c.opts...)
			th, err := env.MainThread()
			if err != nil {
				t.Fatal(err)
			}
			if !c.protect {
				mon = nil
			} else if err := mon.Init(th); err != nil {
				t.Fatal(err)
			}
			barriers := func() uint64 { return env.Obs.Metrics().Counter(obs.MetricLockstepBarrier) }
			mallocs := func(tt *machine.Thread, k int) uint64 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				for i := 0; i < regions; i++ {
					runLoop(t, tt, mon, k)
				}
				runtime.ReadMemStats(&ms)
				return ms.Mallocs - before
			}
			perCall := math.Inf(1)
			var extraBarriers uint64
			if err := th.Run(func(tt *machine.Thread) {
				mallocs(tt, base+extra) // warm up
				// The smallest of three differences: runtime background
				// work only ever adds allocations.
				for try := 0; try < 3; try++ {
					without := mallocs(tt, base)
					b := barriers()
					with := mallocs(tt, base+extra)
					extraBarriers = barriers() - b
					d := (float64(with) - float64(without)) / float64(regions*extra*c.calls)
					perCall = min(perCall, d)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if mon != nil && len(mon.Alarms()) != 0 {
				t.Fatalf("alarms: %v", mon.Alarms())
			}
			if c.barriers && extraBarriers < regions*(base+extra) {
				t.Errorf("%d pipelined barriers in %d regions of %d rounds, want one per round at least",
					extraBarriers, regions, base+extra)
			}
			if perCall > 0.01 {
				t.Errorf("%.3f allocations per libc call, want 0", perCall)
			}
		})
	}
}

// benchLoop times one protected region of b.N rounds, from the leader's
// first round to its last; variant creation and region exit stay out of
// the measurement.
func benchLoop(b *testing.B, round func(th *machine.Thread, g mem.Addr), opts ...Option) {
	env, mon := loopApp(b, round, b.ResetTimer, b.StopTimer, opts...)
	th, err := env.MainThread()
	if err != nil {
		b.Fatal(err)
	}
	if err := mon.Init(th); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	if err := th.Run(func(tt *machine.Thread) { runLoop(b, tt, mon, b.N) }); err != nil {
		b.Fatal(err)
	}
	if alarms := mon.Alarms(); len(alarms) != 0 {
		b.Fatalf("alarms: %v", alarms)
	}
}

// timeRound is one gettimeofday: a result-emulation call whose 16-byte
// result every follower receives.
func timeRound(th *machine.Thread, g mem.Addr) {
	th.Libc("gettimeofday", uint64(g), 0)
}

// BenchmarkRendezvous is one libc call through a strict rendezvous: each
// follower publishes its call record, the leader decodes the records and
// votes, executes the call and emulates its result to every follower.
func BenchmarkRendezvous(b *testing.B) {
	for _, n := range []int{2, 3} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			benchLoop(b, timeRound, WithVariants(n))
		})
	}
}

// BenchmarkRingDrain is one pipelined call with a lag window of 16: the
// leader executes the call and appends its record, result snapshot
// included, to the ring, and the follower drains, verifies and applies it.
func BenchmarkRingDrain(b *testing.B) {
	benchLoop(b, timeRound, WithLockstepMode(LockstepPipelined), WithLagWindow(16))
}

// BenchmarkTrampoline is one interception outside a protected region with
// a recorder attached: the trampoline's PKRU writes and stack pivot, and
// its one trampoline event, around a direct libc call.
func BenchmarkTrampoline(b *testing.B) {
	env, mon := loopApp(b, timeRound, nil, nil)
	th, err := env.MainThread()
	if err != nil {
		b.Fatal(err)
	}
	if err := mon.Init(th); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	if err := th.Run(func(tt *machine.Thread) {
		args := []uint64{uint64(tt.Global("g_buf")), 0}
		slot, _ := env.Img.PLTSlot("gettimeofday")
		mon.Intercept(tt, slot, "gettimeofday", args) // allocates the safe stack
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mon.Intercept(tt, slot, "gettimeofday", args)
		}
		b.StopTimer()
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkVariantCreate is one empty protected region over a heap of 35
// resident pages linked by a few pointers each: mvx_start clones the image
// and heap into every follower window and relocates their pointers, and
// mvx_end reaps the followers. Before each region the leader stores into 5
// of the pages, as a request does. The rollback case is N=2 under
// PolicyRollback, where mvx_start also captures the entry checkpoint.
func BenchmarkVariantCreate(b *testing.B) {
	const pages, written = 35, 5
	cases := []struct {
		name   string
		n      int
		policy DivergencePolicy
	}{
		{"N=2", 2, PolicyKillBoth},
		{"N=3", 3, PolicyKillBoth},
		{"rollback", 2, PolicyRollback},
	}
	for _, c := range cases {
		n := c.n
		b.Run(c.name, func(b *testing.B) {
			env, mon := loopApp(b, timeRound, nil, nil, WithVariants(n), WithPolicy(c.policy))
			th, err := env.MainThread()
			if err != nil {
				b.Fatal(err)
			}
			if err := mon.Init(th); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			if err := th.Run(func(tt *machine.Thread) {
				blocks := make([]mem.Addr, pages)
				for i := range blocks {
					blocks[i] = mem.Addr(tt.Libc("malloc", mem.PageSize))
				}
				for i, p := range blocks {
					for k := 0; k < 4; k++ {
						tt.Store64(p+mem.Addr(k*512), uint64(blocks[(i*7+k)%pages]))
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := 0; k < written; k++ {
						tt.Store64(blocks[(i*written+k)%pages]+8, uint64(i))
					}
					runLoop(b, tt, mon, 0)
				}
				b.StopTimer()
			}); err != nil {
				b.Fatal(err)
			}
			if stats := mon.LastCreation(); stats.PointersRelocated < pages*4*(n-1) {
				b.Fatalf("relocated %d pointers, want at least %d", stats.PointersRelocated, pages*4*(n-1))
			}
		})
	}
}
