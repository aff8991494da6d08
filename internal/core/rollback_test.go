package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"smvx/internal/boot"
	"smvx/internal/obs"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/machine"
)

// TestRollbackRecoversAndReArmsLockstep: a one-shot follower crash under
// PolicyRollback must rewind to the region's checkpoint and re-arm full
// two-variant lockstep — no degraded leader-only window ever opens.
func TestRollbackRecoversAndReArmsLockstep(t *testing.T) {
	for _, mode := range []LockstepMode{LockstepStrict, LockstepPipelined} {
		t.Run(mode.String(), func(t *testing.T) {
			env, mon, rec := policyApp(t, WithPolicy(PolicyRollback),
				WithLockstepMode(mode))
			defineCrashOnce(t, env)
			completed, runErr := runRegions(t, env, mon, "protected_func", 3)
			if runErr != nil || completed != 3 {
				t.Fatalf("completed %d/3, err=%v", completed, runErr)
			}
			if mon.Rollbacks() != 1 {
				t.Fatalf("Rollbacks = %d, want 1", mon.Rollbacks())
			}
			if mon.Escalated() {
				t.Error("single crash must not exhaust the rollback budget")
			}
			if mon.Degraded() {
				t.Error("rollback must never leave the monitor degraded")
			}
			if mon.UnhandledAlarmCount() != 0 {
				t.Errorf("UnhandledAlarmCount = %d", mon.UnhandledAlarmCount())
			}
			for _, a := range mon.Alarms() {
				if !a.Handled {
					t.Errorf("alarm not handled under rollback: %+v", a)
				}
			}
			if n := eventCount(rec, obs.EvRollback); n != 1 {
				t.Errorf("EvRollback count = %d, want 1", n)
			}
			// Every region captures its entry checkpoint at the first
			// quiescent rendezvous.
			if n := eventCount(rec, obs.EvSnapshot); n < 3 {
				t.Errorf("EvSnapshot count = %d, want >= 3", n)
			}
			reports := mon.Reports()
			if len(reports) != 3 {
				t.Fatalf("reports = %d", len(reports))
			}
			if !reports[0].Diverged || !reports[0].RolledBack {
				t.Errorf("region 0 = %+v, want diverged+rolled-back", reports[0])
			}
			// Later regions re-enter full lockstep: a fresh follower clone
			// replicates every call, and no region runs leader-only.
			for i := 1; i < 3; i++ {
				if reports[i].Diverged || reports[i].Degraded || reports[i].RolledBack {
					t.Errorf("region %d = %+v, want clean lockstep", i, reports[i])
				}
				if reports[i].LibcCalls != 2 {
					t.Errorf("region %d LibcCalls = %d, want 2", i, reports[i].LibcCalls)
				}
			}
			for i, r := range reports {
				if r.Degraded && i > 0 {
					t.Errorf("region %d opened a degraded single-variant window", i)
				}
			}
		})
	}
}

// TestRollbackRestoresMemoryToCheckpoint proves the restore is a real memory
// rewind: a leader store issued after the checkpoint anchor must be gone
// once the diverged region rolls back.
func TestRollbackRestoresMemoryToCheckpoint(t *testing.T) {
	env, mon, _ := policyApp(t, WithPolicy(PolicyRollback))
	var followerRuns atomic.Int64
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		th.Libc("gettimeofday", uint64(g), 0)
		th.Store64(g+128, 0xCAFE_F00D) // damage after the entry checkpoint
		if th.Bias() != 0 && followerRuns.Add(1) == 1 {
			th.Load64(0xdead_0000_0000) // unmapped: follower faults
		}
		th.Libc("close", 0)
		return 0
	})
	th, err := env.MainThread()
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	var after uint64
	runErr := th.Run(func(tt *machine.Thread) {
		if err := mon.Start(tt, "protected_func"); err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		tt.Call("protected_func")
		if err := mon.End(tt); !errors.Is(err, machine.ErrRegionRolledBack) {
			t.Errorf("End after a rolled-back region = %v, want ErrRegionRolledBack", err)
			return
		}
		after = tt.Load64(tt.Global("g_buf") + 128)
	})
	if runErr != nil {
		t.Fatalf("leader crashed: %v", runErr)
	}
	if mon.Rollbacks() != 1 {
		t.Fatalf("Rollbacks = %d, want 1", mon.Rollbacks())
	}
	if after == 0xCAFE_F00D {
		t.Fatalf("post-checkpoint store survived the rollback: g_buf+128 = %#x", after)
	}
	if after != 0 {
		t.Errorf("g_buf+128 = %#x after restore, want the checkpoint value 0", after)
	}
}

// TestCheckpointEndsWithRegion: only the region that captured a checkpoint
// can restore it, so End disarms it once the rollback decision is made.
// After a clean region under PolicyRollback, a leader store to a page that
// was resident at the capture costs what it costs under kill-both, with no
// pre-image copy, and tearing the followers down charges nothing; a later
// region that diverges still rewinds to its own entry checkpoint.
func TestCheckpointEndsWithRegion(t *testing.T) {
	// run serves a clean region protected_func(1) under policy, then
	// returns what one leader store to .data and DestroyFollower cost.
	// Under rollback it then serves protected_func(2), whose follower
	// faults, and returns g_buf+128 as its rollback left it.
	run := func(t *testing.T, policy DivergencePolicy, mode LockstepMode) (store, destroy clock.Cycles, after uint64) {
		env, mon, _ := policyApp(t, WithPolicy(policy), WithLockstepMode(mode))
		env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
			g := th.Global("g_buf")
			th.Libc("gettimeofday", uint64(g), 0)
			th.Store64(g+128, argAt(args, 0)) // after the entry checkpoint
			if th.Bias() != 0 && argAt(args, 0) == 2 {
				th.Load64(0xdead_0000_0000) // unmapped: follower faults
			}
			th.Libc("close", 0)
			return 0
		})
		th, err := env.MainThread()
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Init(th); err != nil {
			t.Fatal(err)
		}
		ctr := env.Machine.Counter()
		runErr := th.Run(func(tt *machine.Thread) {
			data := tt.Global("g_data_target")
			tt.Store64(data, 1) // resident at the capture, untouched in the region
			if err := mon.Start(tt, "protected_func", 1); err != nil {
				t.Errorf("Start: %v", err)
				return
			}
			tt.Call("protected_func", 1)
			if err := mon.End(tt); err != nil {
				t.Errorf("End of the clean region: %v", err)
				return
			}
			mark := ctr.Cycles()
			tt.Store64(data, 2)
			store = ctr.Cycles() - mark
			mark = ctr.Cycles()
			mon.DestroyFollower()
			destroy = ctr.Cycles() - mark
			if policy != PolicyRollback {
				return
			}
			if err := mon.Start(tt, "protected_func", 2); err != nil {
				t.Errorf("Start: %v", err)
				return
			}
			tt.Call("protected_func", 2)
			if err := mon.End(tt); !errors.Is(err, machine.ErrRegionRolledBack) {
				t.Errorf("End of the diverged region = %v, want ErrRegionRolledBack", err)
				return
			}
			after = tt.Load64(tt.Global("g_buf") + 128)
		})
		if runErr != nil {
			t.Fatalf("leader crashed: %v", runErr)
		}
		if policy == PolicyRollback && mon.Rollbacks() != 1 {
			t.Errorf("Rollbacks = %d, want 1", mon.Rollbacks())
		}
		return store, destroy, after
	}
	for _, mode := range []LockstepMode{LockstepStrict, LockstepPipelined} {
		t.Run(mode.String(), func(t *testing.T) {
			killStore, _, _ := run(t, PolicyKillBoth, mode)
			store, destroy, after := run(t, PolicyRollback, mode)
			if store != killStore {
				t.Errorf("leader store after End cost %d cycles under rollback, %d under kill-both", store, killStore)
			}
			if destroy != 0 {
				t.Errorf("DestroyFollower after End charged %d cycles, want 0", destroy)
			}
			if after != 1 {
				t.Errorf("g_buf+128 = %#x after the rollback, want 1, its value at the diverged region's entry", after)
			}
		})
	}
}

// TestInvokeAbortsHijackedRegionUnderRollback models the exploited-leader
// shape of the nginx CVE: the follower faults mid-region, after which the
// leader — now potentially executing attacker-controlled code — issues a
// store and heads for another rendezvous. Under PolicyRollback a region
// entered through Invoke must be unwound at that rendezvous: the post-fault
// store is rolled back, the region tail never executes, and the worker
// thread survives to run further clean regions in full lockstep.
func TestInvokeAbortsHijackedRegionUnderRollback(t *testing.T) {
	for _, mode := range []LockstepMode{LockstepStrict, LockstepPipelined} {
		t.Run(mode.String(), func(t *testing.T) {
			env, mon, rec := policyApp(t, WithPolicy(PolicyRollback),
				WithLockstepMode(mode))
			var followerRuns atomic.Int64
			env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
				g := th.Global("g_buf")
				th.Libc("gettimeofday", uint64(g), 0)
				if th.Bias() != 0 && followerRuns.Add(1) == 1 {
					th.Load64(0xdead_0000_0000) // follower faults: divergence
				}
				// From here the leader stands in for hijacked control flow:
				// a payload store, then a rendezvous the abort must preempt.
				th.Store64(g+128, 0xBAD_F00D)
				th.Libc("close", 0)
				th.Store64(g+136, 0x5AFE) // region tail: unreachable when aborted
				return 0
			})
			th, err := env.MainThread()
			if err != nil {
				t.Fatal(err)
			}
			if err := mon.Init(th); err != nil {
				t.Fatal(err)
			}
			var payload, tail uint64
			clean := 0
			runErr := th.Run(func(tt *machine.Thread) {
				if _, err := mon.Invoke(tt, "protected_func"); !errors.Is(err, machine.ErrRegionRolledBack) {
					t.Errorf("hijacked region Invoke = %v, want ErrRegionRolledBack", err)
					return
				}
				g := tt.Global("g_buf")
				payload, tail = tt.Load64(g+128), tt.Load64(g+136)
				// The surviving worker keeps serving: two more regions in
				// re-armed two-variant lockstep.
				for i := 0; i < 2; i++ {
					if _, err := mon.Invoke(tt, "protected_func"); err != nil {
						t.Errorf("Invoke %d: %v", i, err)
						return
					}
					clean++
				}
			})
			if runErr != nil {
				t.Fatalf("leader thread died — region was not survivable: %v", runErr)
			}
			if payload == 0xBAD_F00D {
				t.Errorf("post-fault payload store survived: g_buf+128 = %#x", payload)
			}
			if tail != 0 {
				t.Errorf("aborted region tail executed: g_buf+136 = %#x", tail)
			}
			if mon.Rollbacks() != 1 {
				t.Errorf("Rollbacks = %d, want 1", mon.Rollbacks())
			}
			if clean != 2 {
				t.Fatalf("clean follow-up regions = %d/2", clean)
			}
			if mon.Degraded() || mon.Escalated() {
				t.Errorf("degraded=%v escalated=%v after a single recovered region",
					mon.Degraded(), mon.Escalated())
			}
			if n := eventCount(rec, obs.EvRegionAbort); n != 1 {
				t.Errorf("EvRegionAbort count = %d, want 1", n)
			}
			if n := rec.Metrics().Counter("rollback.region_aborts"); n != 1 {
				t.Errorf("rollback.region_aborts = %d, want 1", n)
			}
			reports := mon.Reports()
			if len(reports) != 3 {
				t.Fatalf("reports = %d", len(reports))
			}
			if !reports[0].Diverged || !reports[0].RolledBack {
				t.Errorf("region 0 = %+v, want diverged+rolled-back", reports[0])
			}
			for i := 1; i < 3; i++ {
				if reports[i].Diverged || reports[i].Degraded || reports[i].RolledBack {
					t.Errorf("region %d = %+v, want clean lockstep", i, reports[i])
				}
			}
		})
	}
}

// TestInvokeKillBothKeepsFatalSemantics: outside rollback, Invoke must not
// soften anything — the leader executes the whole region (including the
// tail) and the divergence stays an unhandled kill-both verdict.
func TestInvokeKillBothKeepsFatalSemantics(t *testing.T) {
	env, mon, rec := policyApp(t)
	defineCrashOnce(t, env)
	th, err := env.MainThread()
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	runErr := th.Run(func(tt *machine.Thread) {
		if _, err := mon.Invoke(tt, "protected_func"); err != nil {
			t.Errorf("Invoke: %v", err)
		}
	})
	if runErr != nil {
		t.Fatalf("leader crashed: %v", runErr)
	}
	if n := eventCount(rec, obs.EvRegionAbort); n != 0 {
		t.Errorf("kill-both emitted %d region aborts", n)
	}
	if mon.UnhandledAlarmCount() == 0 {
		t.Error("kill-both must leave the follower-fault alarm unhandled")
	}
	reports := mon.Reports()
	if len(reports) != 1 || !reports[0].Diverged || reports[0].RolledBack {
		t.Errorf("reports = %+v", reports)
	}
}

// defineArgMismatchAlways diverges deterministically at call ordinal 2 in
// every region: the follower passes a different scalar backlog to listen, so
// the rollback root-cause ordinal is identical on every recurrence and the
// same-ordinal streak accumulates.
func defineArgMismatchAlways(t *testing.T, env *boot.Env) {
	t.Helper()
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		th.Libc("gettimeofday", uint64(g), 0)
		backlog := uint64(16)
		if th.Bias() != 0 {
			backlog = 128 // same call, different scalar argument
		}
		th.Libc("listen", 3, backlog)
		return 0
	})
}

// TestRollbackBudgetEscalatesToKillBoth: a divergence that recurs at the
// same root-cause ordinal makes no forward progress, so after the budget is
// spent the monitor must escalate — reinstating the paper's unhandled
// verdict for the streak and reverting to kill-both containment.
func TestRollbackBudgetEscalatesToKillBoth(t *testing.T) {
	env, mon, rec := policyApp(t, WithPolicy(PolicyRollback), WithRollbackBudget(2))
	defineArgMismatchAlways(t, env)
	completed, runErr := runRegions(t, env, mon, "protected_func", 5)
	if runErr != nil || completed != 5 {
		t.Fatalf("completed %d/5, err=%v", completed, runErr)
	}
	if !mon.Escalated() {
		t.Fatal("budget of 2 must escalate on the third same-ordinal rollback attempt")
	}
	if mon.Rollbacks() != 2 {
		t.Errorf("Rollbacks = %d, want the budget of 2", mon.Rollbacks())
	}
	if n := eventCount(rec, obs.EvRollback); n != 2 {
		t.Errorf("EvRollback count = %d, want 2", n)
	}
	if mon.Degraded() {
		t.Error("escalation reverts to kill-both, which never degrades")
	}
	// Every same-ordinal arg-mismatch alarm in the streak — including the
	// ones provisionally absorbed by the first two rollbacks — must end up
	// unhandled once the escalation breaks the recovery promise.
	mismatches, unhandled := 0, 0
	for _, a := range mon.Alarms() {
		if a.Reason != AlarmArgMismatch {
			continue
		}
		mismatches++
		if !a.Handled {
			unhandled++
		}
	}
	if mismatches != 5 || unhandled != 5 {
		t.Errorf("arg-mismatch alarms = %d (unhandled %d), want 5 unhandled of 5",
			mismatches, unhandled)
	}
	if mon.UnhandledAlarmCount() < 5 {
		t.Errorf("UnhandledAlarmCount = %d, want >= 5", mon.UnhandledAlarmCount())
	}
	reports := mon.Reports()
	if len(reports) != 5 {
		t.Fatalf("reports = %d", len(reports))
	}
	for i := 0; i < 2; i++ {
		if !reports[i].Diverged || !reports[i].RolledBack {
			t.Errorf("region %d = %+v, want diverged+rolled-back", i, reports[i])
		}
	}
	// Region 2 escalates: its follower was still detached mid-region (so
	// its tail reads Degraded), but the exhausted budget blocks the
	// restore.
	if !reports[2].Diverged || reports[2].RolledBack {
		t.Errorf("region 2 = %+v, want diverged and not rolled back", reports[2])
	}
	// Everything after the escalation behaves like kill-both: diverged,
	// never rolled back, never leader-only.
	for i := 3; i < 5; i++ {
		if !reports[i].Diverged || reports[i].RolledBack || reports[i].Degraded {
			t.Errorf("region %d = %+v, want kill-both behaviour", i, reports[i])
		}
	}
	// Once escalated, checkpoints stop: only the three pre-escalation
	// regions captured one.
	if n := eventCount(rec, obs.EvSnapshot); n != 3 {
		t.Errorf("EvSnapshot count = %d, want 3 (none after escalation)", n)
	}
}
