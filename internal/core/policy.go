package core

import (
	"fmt"

	"smvx/internal/obs"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/machine"
)

// DivergencePolicy decides what raiseAlarm and follower faults do to the
// running variants. The paper's monitor has exactly one answer — alarm and
// stop — but production MVX systems survive variant faults: dMVX detaches a
// failed variant and degrades to single-variant execution, and ReMon-family
// MVEEs harden rendezvous with timeouts and bounded retries. The policy
// layer reproduces that spectrum without touching the detection logic.
type DivergencePolicy int

const (
	// PolicyKillBoth is the paper's default: the alarm stands, the
	// diverging follower is aborted with ErrDivergence, and nothing is
	// contained. Existing behaviour, byte for byte.
	PolicyKillBoth DivergencePolicy = iota
	// PolicyLeaderContinue quarantines and detaches the follower, drains
	// its pending rendezvous slots, and lets the leader run single-variant
	// with the monitor flagged degraded (dMVX-style detach).
	PolicyLeaderContinue
	// PolicyRestartFollower detaches like PolicyLeaderContinue, then
	// re-clones a fresh follower at the next protected-region entry,
	// subject to a bounded restart budget and a virtual-cycle backoff;
	// once the budget is spent it degrades to leader-continue.
	PolicyRestartFollower
	// PolicyRollback survives a divergence by rewinding: the variants'
	// memory is restored to the last copy-on-write checkpoint (captured at
	// a quiescent rendezvous every SnapshotInterval virtual cycles), the
	// post-snapshot libc tail is replayed from the redo log through the
	// emulation path, and the next protected region re-arms full lockstep
	// with a freshly cloned follower — no degraded single-variant window.
	// Repeated rollbacks at the same root-cause ordinal (no forward
	// progress) exhaust RollbackBudget and escalate to kill-both.
	PolicyRollback
)

// String names the policy (the same spelling ParsePolicy accepts).
func (p DivergencePolicy) String() string {
	switch p {
	case PolicyKillBoth:
		return "kill-both"
	case PolicyLeaderContinue:
		return "leader-continue"
	case PolicyRestartFollower:
		return "restart-follower"
	case PolicyRollback:
		return "rollback"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy name as spelled by String.
func ParsePolicy(s string) (DivergencePolicy, error) {
	switch s {
	case "kill-both", "":
		return PolicyKillBoth, nil
	case "leader-continue":
		return PolicyLeaderContinue, nil
	case "restart-follower":
		return PolicyRestartFollower, nil
	case "rollback":
		return PolicyRollback, nil
	default:
		return 0, fmt.Errorf("smvx: unknown divergence policy %q (want kill-both, leader-continue, restart-follower, or rollback)", s)
	}
}

// Containment defaults.
const (
	// DefaultRestartBudget is how many follower re-clones
	// PolicyRestartFollower attempts before degrading for good.
	DefaultRestartBudget = 3
	// DefaultRestartBackoff is the virtual-cycle delay between a detach
	// and the next restart attempt (~0.5ms at the simulated 2.1GHz).
	DefaultRestartBackoff clock.Cycles = 1_000_000
	// DefaultRendezvousDeadline is the per-rendezvous virtual-cycle budget
	// (~1s at 2.1GHz): no legitimate lockstep wait in the reproduced
	// workloads comes within orders of magnitude of it.
	DefaultRendezvousDeadline clock.Cycles = 2_100_000_000
	// DefaultSnapshotInterval is PolicyRollback's checkpoint cadence
	// (~50µs at the simulated 2.1GHz): a checkpoint is captured at the
	// first quiescent rendezvous after this many virtual cycles elapse.
	DefaultSnapshotInterval clock.Cycles = 100_000
	// DefaultRollbackBudget is how many consecutive rollbacks at the same
	// root-cause ordinal PolicyRollback absorbs before concluding the
	// region makes no forward progress and escalating to kill-both.
	DefaultRollbackBudget = 3
)

// contain reports whether a containment policy is active (anything but the
// paper's kill-both). A rollback monitor that has exhausted its budget has
// escalated to kill-both and stops containing.
func (mo *Monitor) contain() bool {
	if mo.opts.Policy == PolicyRollback && mo.escalated.Load() {
		return false
	}
	return mo.opts.Policy != PolicyKillBoth
}

// Degraded reports whether the monitor is running without a follower after
// a policy detach (cleared when PolicyRestartFollower re-clones one).
func (mo *Monitor) Degraded() bool {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.degraded
}

// RestartsUsed returns how many follower restarts have been spent.
func (mo *Monitor) RestartsUsed() int {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.restartsUsed
}

// UnhandledAlarmCount counts alarms no containment policy absorbed — the
// signal cmd/smvx turns into a nonzero exit status.
func (mo *Monitor) UnhandledAlarmCount() int {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	n := 0
	for _, a := range mo.alarms {
		if !a.Handled {
			n++
		}
	}
	return n
}

// severFromFollower ends one follower slot's participation after it
// detected a divergence (or a blown deadline) at drain time, on its own
// goroutine: containment policies detach and wind the thread down with
// ErrDetached (no secondary alarm), while kill-both panics with
// ErrDivergence so the variant waiter raises the paper's follower-fault
// alarm — the same split the strict rendezvous reaches through
// rejectFollower. Never returns.
func (mo *Monitor) severFromFollower(s *session, sl *followerSlot, t *machine.Thread, cause string) {
	if mo.contain() {
		mo.detachFollower(s, sl, cause)
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDetached})
	}
	panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDivergence})
}

// detachFollower severs one follower slot from lockstep, exactly once per
// slot: the slot's detach channel is closed (waking a follower blocked
// mid-rendezvous), its TID is quarantined so any later trampoline entry
// faults with ErrDetached instead of reaching the kernel unreplicated, and
// pending rendezvous slots are drained with a detach verdict. Under a
// containment policy it additionally marks the slot down (the monitor is
// degraded only when every slot is down), arms the restart backoff, and
// surfaces the transition to the flight recorder. cause is a short slug
// for the EvFollowerDetached event.
func (mo *Monitor) detachFollower(s *session, sl *followerSlot, cause string) {
	sl.detachOnce.Do(func() {
		// Bookkeeping happens before the channel close so that a follower
		// woken by it observes the quarantine entry.
		mo.mu.Lock()
		if sl.tid != 0 {
			mo.quarantined[sl.tid] = true
		}
		wasDown := mo.slotDown[sl.id-1]
		if mo.contain() {
			if mo.opts.Policy == PolicyRollback {
				// Rollback recovers at region exit and the next region
				// re-arms full lockstep with fresh clones unconditionally:
				// the monitor never enters the degraded single-variant mode,
				// so no backoff is armed either.
			} else {
				mo.slotDown[sl.id-1] = true
				allDown := true
				for _, d := range mo.slotDown {
					allDown = allDown && d
				}
				mo.degraded = allDown
				mo.nextRestartAt = mo.m.Counter().Cycles() + mo.opts.RestartBackoff
			}
		}
		mo.mu.Unlock()
		close(sl.detachCh)
		sl.drainPending()
		if mo.contain() && !wasDown {
			mo.rec.Record(obs.EvFollowerDetached, obs.FollowerVariant(sl.id), sl.tid,
				cause, s.calls.Load(), 0, 0)
			mo.rec.Metrics().Inc("policy.follower_detached")
		}
	})
}
