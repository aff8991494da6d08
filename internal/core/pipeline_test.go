package core

import (
	"strings"
	"testing"

	"smvx/internal/boot"
	"smvx/internal/obs"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

func TestLockstepModeStringAndParse(t *testing.T) {
	for _, m := range []LockstepMode{LockstepStrict, LockstepPipelined} {
		got, err := ParseLockstepMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseLockstepMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := ParseLockstepMode(""); err != nil || m != LockstepStrict {
		t.Errorf("empty mode = %v, %v; want strict", m, err)
	}
	if _, err := ParseLockstepMode("turbo"); err == nil {
		t.Error("unknown mode must not parse")
	}
	if LockstepMode(9).String() != "lockstep(9)" {
		t.Errorf("out-of-range String = %q", LockstepMode(9))
	}
}

// TestPipelinedIdenticalExecutionNoAlarm is the pipelined twin of
// TestLockstepIdenticalExecutionNoAlarm: same region, same invariants —
// emulated time identical in both variants, leader-only write exactly
// once — plus the pipelined-only metrics.
func TestPipelinedIdenticalExecutionNoAlarm(t *testing.T) {
	env, mon, rec := policyApp(t, WithLockstepMode(LockstepPipelined))
	defineProtected(t, env)
	completed, runErr := runRegions(t, env, mon, "protected_func", 1)
	if runErr != nil || completed != 1 {
		t.Fatalf("completed %d/1, err=%v", completed, runErr)
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
	if rep.EmulatedBytes == 0 {
		t.Error("pipelined gettimeofday should still emulate the timeval")
	}
	lt, _ := env.AS.Read64(mustSym(t, env, "g_leader_time"))
	ftAddr := mem.Addr(int64(mustSym(t, env, "g_follower_time")) + FollowerDelta)
	ft, _ := env.AS.Read64(ftAddr)
	if lt == 0 || lt != ft {
		t.Errorf("emulated time mismatch: leader=%d follower=%d", lt, ft)
	}
	data, _ := env.Kernel.FS().ReadFile("/out.txt")
	if string(data) != "once" {
		t.Errorf("file = %q, want %q (leader-only write)", data, "once")
	}
	m := rec.Metrics()
	// open/write/close are barriers; gettimeofday pipelines; malloc/free
	// ride the ring as local records.
	if n := m.Counter(obs.MetricLockstepBarrier); n != 3 {
		t.Errorf("barrier count = %d, want 3 (open/write/close)", n)
	}
	if h := m.Histogram(obs.MetricRendezvousLag); h.Count == 0 {
		t.Error("no rendezvous.lag observations in pipelined mode")
	}
	if h := m.Histogram(obs.MetricRendezvousLeaderCycles); h.Count == 0 {
		t.Error("no rendezvous.leader.cycles observations")
	}
}

// TestPipelinedBoundedRunAhead caps the lag window at 2 and checks the
// leader never publishes a record more than window+1 calls ahead of the
// drain point (the +1 is the call in flight when the ring is full).
func TestPipelinedBoundedRunAhead(t *testing.T) {
	env, mon, rec := policyApp(t, WithLockstepMode(LockstepPipelined), WithLagWindow(2))
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		for i := 0; i < 16; i++ {
			th.Libc("gettimeofday", uint64(g), 0)
			if th.Bias() != 0 {
				th.ChargeUser(5_000) // slow follower: the ring fills
			}
		}
		return 0
	})
	completed, runErr := runRegions(t, env, mon, "protected_func", 1)
	if runErr != nil || completed != 1 {
		t.Fatalf("completed %d/1, err=%v", completed, runErr)
	}
	if alarms := mon.Alarms(); len(alarms) != 0 {
		t.Fatalf("alarms = %v", alarms)
	}
	h := rec.Metrics().Histogram(obs.MetricRendezvousLag)
	if h.Count == 0 {
		t.Fatal("no lag observations")
	}
	if h.Max > 3 {
		t.Errorf("run-ahead reached %d calls with lag window 2", h.Max)
	}
}

// TestPipelinedDivergenceParity runs the same diverging regions under
// strict and pipelined lockstep and requires the identical alarm
// (reason, originating call ordinal) — detection may happen M calls
// late on the ring, but attribution must not drift.
func TestPipelinedDivergenceParity(t *testing.T) {
	cases := []struct {
		name   string
		fn     string
		define func(t *testing.T, env *boot.Env)
		reason AlarmReason
	}{
		{
			// Pipelined-class call (gettimeofday) vs a different call:
			// detected at drain time in pipelined mode.
			name: "call-mismatch", fn: "diverge_call", reason: AlarmCallMismatch,
			define: func(t *testing.T, env *boot.Env) {
				env.Prog.MustDefine("diverge_call", func(th *machine.Thread, args []uint64) uint64 {
					g := th.Global("g_buf")
					th.Libc("gettimeofday", uint64(g), 0)
					if th.Bias() == 0 {
						th.Libc("gettimeofday", uint64(g), 0)
					} else {
						th.Libc("time", 0)
					}
					th.Libc("close", 0)
					return 0
				})
			},
		},
		{
			// Barrier call (open) with a flipped scalar: detected inside
			// the full rendezvous in both modes.
			name: "arg-mismatch", fn: "diverge_arg", reason: AlarmArgMismatch,
			define: func(t *testing.T, env *boot.Env) {
				env.Prog.MustDefine("diverge_arg", func(th *machine.Thread, args []uint64) uint64 {
					g := th.Global("g_buf")
					th.Libc("gettimeofday", uint64(g), 0)
					th.WriteCString(g+256, "/f")
					flags := uint64(kernel.OCreat | kernel.OWronly)
					if th.Bias() != 0 {
						flags = 0
					}
					th.Libc("open", uint64(g+256), flags)
					return 0
				})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type key struct {
				reason AlarmReason
				idx    uint64
			}
			got := map[LockstepMode]key{}
			for _, mode := range []LockstepMode{LockstepStrict, LockstepPipelined} {
				env, mon, _ := policyApp(t, WithLockstepMode(mode))
				tc.define(t, env)
				completed, runErr := runRegions(t, env, mon, tc.fn, 1)
				if runErr != nil || completed != 1 {
					t.Fatalf("%v: completed %d/1, err=%v", mode, completed, runErr)
				}
				var found *Alarm
				for i, a := range mon.Alarms() {
					if a.Reason == tc.reason {
						found = &mon.Alarms()[i]
						break
					}
				}
				if found == nil {
					t.Fatalf("%v: no %v alarm; alarms = %v", mode, tc.reason, mon.Alarms())
				}
				got[mode] = key{found.Reason, found.CallIndex}
				if reps := mon.Reports(); len(reps) != 1 || !reps[0].Diverged {
					t.Errorf("%v: report should record divergence: %+v", mode, reps)
				}
			}
			if got[LockstepStrict] != got[LockstepPipelined] {
				t.Errorf("alarm attribution diverged across modes: strict=%+v pipelined=%+v",
					got[LockstepStrict], got[LockstepPipelined])
			}
		})
	}
}

// TestPipelinedSequenceOverrun: the follower issuing a call after the
// leader left the region must raise AlarmSequenceLength in pipelined mode
// exactly as in strict mode.
func TestPipelinedSequenceOverrun(t *testing.T) {
	for _, mode := range []LockstepMode{LockstepStrict, LockstepPipelined} {
		t.Run(mode.String(), func(t *testing.T) {
			env, mon, _ := policyApp(t, WithLockstepMode(mode))
			env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
				g := th.Global("g_buf")
				th.Libc("gettimeofday", uint64(g), 0)
				if th.Bias() != 0 {
					th.Libc("gettimeofday", uint64(g), 0) // one call too many
				}
				return 0
			})
			completed, runErr := runRegions(t, env, mon, "protected_func", 1)
			if runErr != nil || completed != 1 {
				t.Fatalf("completed %d/1, err=%v", completed, runErr)
			}
			found := false
			for _, a := range mon.Alarms() {
				if a.Reason == AlarmSequenceLength {
					found = true
					if !strings.Contains(a.Detail, "after leader finished") {
						t.Errorf("detail = %q", a.Detail)
					}
				}
			}
			if !found {
				t.Fatalf("no AlarmSequenceLength; alarms = %v", mon.Alarms())
			}
		})
	}
}

// TestPipelinedStallAttributesOrdinal: a follower that burns past the
// rendezvous deadline mid-ring raises the timeout itself at drain time,
// attributed to the stalled call's own ordinal — not to whatever barrier
// the run-ahead leader happens to be parked on.
func TestPipelinedStallAttributesOrdinal(t *testing.T) {
	env, mon, _ := policyApp(t, WithLockstepMode(LockstepPipelined),
		WithPolicy(PolicyLeaderContinue), WithRendezvousDeadline(100_000))
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		th.Libc("gettimeofday", uint64(g), 0) // ordinal 1 drains clean
		if th.Bias() != 0 {
			for i := 0; i < 50; i++ {
				th.ChargeUser(10_000) // 500k cycles >> 100k deadline
			}
		}
		th.Libc("gettimeofday", uint64(g), 0) // ordinal 2: blown deadline
		th.Libc("close", 0)
		return 0
	})
	completed, runErr := runRegions(t, env, mon, "protected_func", 2)
	if runErr != nil || completed != 2 {
		t.Fatalf("completed %d/2, err=%v", completed, runErr)
	}
	var timeout *Alarm
	for i, a := range mon.Alarms() {
		if a.Reason == AlarmRendezvousTimeout {
			timeout = &mon.Alarms()[i]
			break
		}
	}
	if timeout == nil {
		t.Fatalf("no AlarmRendezvousTimeout; alarms = %v", mon.Alarms())
	}
	if timeout.CallIndex != 2 {
		t.Errorf("timeout CallIndex = %d, want 2 (the stalled call)", timeout.CallIndex)
	}
	if !timeout.Handled {
		t.Error("timeout alarm not handled under leader-continue")
	}
	if !mon.Degraded() {
		t.Error("follower should be detached after the blown deadline")
	}
}

// TestPipelinedHungFollowerTrippedByWatchdog wedges the follower off-CPU
// before it drains anything: the leader blocks at the close barrier, the
// real-time watchdog trips, and after the grace window the leader detaches
// rather than deadlocking.
func TestPipelinedHungFollowerTrippedByWatchdog(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	env, mon, _ := policyApp(t, WithLockstepMode(LockstepPipelined),
		WithPolicy(PolicyLeaderContinue), WithRendezvousDeadline(DefaultRendezvousDeadline))
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		th.Libc("gettimeofday", uint64(g), 0)
		if th.Bias() != 0 {
			<-release // hangs until test teardown: no cycles charged
		}
		th.Libc("close", 0)
		return 0
	})
	completed, runErr := runRegions(t, env, mon, "protected_func", 1)
	if runErr != nil || completed != 1 {
		t.Fatalf("completed %d/1, err=%v", completed, runErr)
	}
	found := false
	for _, a := range mon.Alarms() {
		if a.Reason == AlarmRendezvousTimeout && a.Handled {
			found = true
		}
	}
	if !found {
		t.Fatalf("no handled AlarmRendezvousTimeout; alarms = %v", mon.Alarms())
	}
	if !mon.Degraded() {
		t.Error("hung follower should be detached")
	}
}

// TestPipelinedEmulationFault: applying the leader's result snapshot into
// an unmapped follower buffer must raise AlarmEmulationFault with the
// originating ordinal, and — under kill-both — leave the region completing
// diverged without killing the follower, exactly as strict mode does.
func TestPipelinedEmulationFault(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy DivergencePolicy
	}{
		{"kill-both", PolicyKillBoth},
		{"leader-continue", PolicyLeaderContinue},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, mon, _ := policyApp(t, WithLockstepMode(LockstepPipelined), WithPolicy(tc.policy))
			env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
				g := uint64(th.Global("g_buf"))
				if th.Bias() != 0 {
					g = 0x6f6f_0000_0000 // unmapped in every variant
				}
				th.Libc("gettimeofday", g, 0)
				th.Libc("close", 0)
				return 0
			})
			completed, runErr := runRegions(t, env, mon, "protected_func", 1)
			if runErr != nil || completed != 1 {
				t.Fatalf("completed %d/1, err=%v", completed, runErr)
			}
			var found *Alarm
			for i, a := range mon.Alarms() {
				if a.Reason == AlarmEmulationFault {
					found = &mon.Alarms()[i]
				}
			}
			if found == nil {
				t.Fatalf("no AlarmEmulationFault; alarms = %v", mon.Alarms())
			}
			if found.CallIndex != 1 {
				t.Errorf("CallIndex = %d, want 1 (the gettimeofday)", found.CallIndex)
			}
			if !strings.Contains(found.Detail, "buffer 0x6f6f00000000 ") {
				t.Errorf("Detail = %q, want it to name the follower buffer 0x6f6f00000000", found.Detail)
			}
			if found.Handled != (tc.policy != PolicyKillBoth) {
				t.Errorf("Handled = %v under %s", found.Handled, tc.policy)
			}
		})
	}
}

// TestPipelinedContainmentPolicies: the containment spectrum holds in
// pipelined mode — a crashing follower is detached under leader-continue
// and re-cloned under restart-follower.
func TestPipelinedContainmentPolicies(t *testing.T) {
	t.Run("leader-continue", func(t *testing.T) {
		env, mon, rec := policyApp(t, WithLockstepMode(LockstepPipelined),
			WithPolicy(PolicyLeaderContinue))
		defineCrashOnce(t, env)
		completed, runErr := runRegions(t, env, mon, "protected_func", 3)
		if runErr != nil || completed != 3 {
			t.Fatalf("completed %d/3, err=%v", completed, runErr)
		}
		if mon.UnhandledAlarmCount() != 0 {
			t.Errorf("UnhandledAlarmCount = %d", mon.UnhandledAlarmCount())
		}
		if !mon.Degraded() {
			t.Error("monitor should be degraded after detach")
		}
		if n := eventCount(rec, obs.EvFollowerDetached); n != 1 {
			t.Errorf("EvFollowerDetached count = %d, want 1", n)
		}
	})
	t.Run("restart-follower", func(t *testing.T) {
		env, mon, _ := policyApp(t, WithLockstepMode(LockstepPipelined),
			WithPolicy(PolicyRestartFollower), WithRestartBudget(2), WithRestartBackoff(100))
		defineCrashOnce(t, env)
		completed, runErr := runRegions(t, env, mon, "protected_func", 3)
		if runErr != nil || completed != 3 {
			t.Fatalf("completed %d/3, err=%v", completed, runErr)
		}
		if mon.RestartsUsed() != 1 {
			t.Fatalf("RestartsUsed = %d, want 1", mon.RestartsUsed())
		}
		if mon.Degraded() {
			t.Error("monitor still degraded after successful restart")
		}
		reports := mon.Reports()
		for i := 1; i < 3; i++ {
			if reports[i].Diverged || reports[i].Degraded {
				t.Errorf("region %d = %+v, want clean lockstep", i, reports[i])
			}
		}
	})
}

// TestResultRecordCodec: the pipelined result record decodes what it
// encodes and rejects corruption without panicking.
func TestResultRecordCodec(t *testing.T) {
	bufs := []emuBuf{
		{argIdx: 0, data: []byte{1, 2, 3, 4}},
		{argIdx: 2, data: []byte("timeval bytes....")},
	}
	wire := appendResultRecord(nil, 0x1f, kernel.Errno(11), bufs)
	ret, errno, got, err := decodeResultRecord(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 0x1f || errno != 11 || len(got) != 2 {
		t.Fatalf("roundtrip = %#x, %d, %d bufs", ret, errno, len(got))
	}
	if got[0].argIdx != 0 || string(got[1].data) != "timeval bytes...." {
		t.Errorf("bufs = %+v", got)
	}
	// Truncations at every prefix length must fail cleanly, not panic.
	for i := 0; i < len(wire); i++ {
		if _, _, _, err := decodeResultRecord(wire[:i], nil); err == nil && i < len(wire) {
			// Short prefixes that happen to decode (e.g. ret-only frames)
			// are still rejected by the trailing-garbage check elsewhere;
			// only a full prefix may parse.
			t.Errorf("truncated record of %d bytes decoded", i)
		}
	}
	// Trailing garbage is rejected.
	if _, _, _, err := decodeResultRecord(append(append([]byte{}, wire...), 0x00), nil); err == nil {
		t.Error("trailing garbage accepted")
	}
	// Oversized buffer count is rejected.
	big := appendResultRecord(nil, 0, 0, make([]emuBuf, maxResultBufs+1))
	if _, _, _, err := decodeResultRecord(big, nil); err == nil {
		t.Error("oversized buffer count accepted")
	}
}

// TestPipelinedKillBothPreservesPaperBehaviour: under the default policy a
// pipelined divergence still aborts the follower and nothing is detached.
func TestPipelinedKillBothPreservesPaperBehaviour(t *testing.T) {
	env, mon, rec := policyApp(t, WithLockstepMode(LockstepPipelined))
	defineCrashAlways(t, env)
	completed, runErr := runRegions(t, env, mon, "protected_func", 2)
	if runErr != nil || completed != 2 {
		t.Fatalf("completed %d/2, err=%v", completed, runErr)
	}
	if mon.Degraded() || mon.RestartsUsed() != 0 {
		t.Errorf("kill-both mutated policy state: degraded=%v restarts=%d",
			mon.Degraded(), mon.RestartsUsed())
	}
	if n := eventCount(rec, obs.EvFollowerDetached); n != 0 {
		t.Errorf("kill-both emitted %d detach events", n)
	}
	if mon.UnhandledAlarmCount() != len(mon.Alarms()) {
		t.Errorf("unhandled = %d, alarms = %d", mon.UnhandledAlarmCount(), len(mon.Alarms()))
	}
}
