package core

// Survivable MVX: copy-on-write variant checkpoints and the PolicyRollback
// recovery engine.
//
// Production MVX deployments treat a divergence as terminal: kill both
// variants (the paper's answer) or degrade to single-variant execution
// (dMVX-style detach). Both give up something — availability or the
// security property itself. The rollback policy keeps both: at a
// configurable virtual-cycle cadence the monitor checkpoints the variant
// set at a quiescent rendezvous, and a checkpoint is a copy-on-write
// snapshot of the address space (region table, permissions, MPK keys,
// taint tags; see internal/sim/mem/snapshot.go). When a divergence fires,
// End waits for the severed followers to wind down and restores the
// address space to the region's last checkpoint in place; the next
// protected region enters with freshly cloned followers, never the
// degraded single-variant mode. Nothing is replayed over the restored
// memory: every emulation write since the capture landed in a follower
// window, and the next mvx_start unmaps and re-clones those windows (under
// WithVariantReuse, overwrites them from the leader's resident pages)
// before any follower runs. Consecutive rollbacks pinned to the same
// root-cause ordinal make no forward progress; after RollbackBudget of
// them the monitor escalates to the paper's kill-both.

import (
	"fmt"

	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// snapshotDue reports whether the leader should capture a checkpoint at
// the current quiescent rendezvous: the first rendezvous of every region
// always checkpoints (so a rollback anchor exists before any fault can
// fire), and after that the cadence is SnapshotInterval virtual cycles.
// Leader goroutine only.
func (mo *Monitor) snapshotDue(s *session) bool {
	if mo.opts.Policy != PolicyRollback || mo.escalated.Load() {
		return false
	}
	if !s.snapped {
		return true
	}
	iv := mo.opts.SnapshotInterval
	return iv > 0 && mo.m.Counter().Cycles()-mo.lastSnapAt >= iv
}

// captureCheckpoint snapshots the address space at a quiescent point of
// call idx: at region entry, before any follower is launched, or inside a
// rendezvous with every arrived follower parked on its reply (at a
// pipelined barrier the rings are drained). The snapshot replaces the
// region's previous checkpoint; the ledger charges it to class cls.
func (mo *Monitor) captureCheckpoint(s *session, leader *machine.Thread, cls ledger.Class, idx uint64) {
	start := mo.m.Counter().Cycles()
	ms := mo.m.AddressSpace().Snapshot()
	mo.mu.Lock()
	mo.ckpt = ms
	mo.snapshots++
	mo.mu.Unlock()
	s.snapped = true
	now := mo.m.Counter().Cycles()
	mo.lastSnapAt = now
	if lr := s.lr; lr != nil {
		lr.Add(ledger.PhaseSnapshot, obs.VariantLeader, cls,
			now-start, ledger.Mark{}, uint64(ms.ResidentPages())*mem.PageSize)
	}
	if obsRec := mo.rec; obsRec != nil {
		obsRec.Record(obs.EvSnapshot, obs.VariantLeader, leader.TID(), s.fn,
			idx, uint64(ms.ResidentPages()), ms.Generation())
		m := obsRec.Metrics()
		m.Inc("snapshot.captured")
		m.Observe("snapshot.capture.cycles", uint64(now-start))
		m.SetGauge("snapshot.resident.pages", float64(ms.ResidentPages()))
	}
}

// dropCheckpoint ends the region's checkpoint once End's rollback decision
// is made: only the capturing region can restore it, so the next region's
// teardown and the leader's stores between regions copy no pre-image for
// it. A no-op when the region captured none (a leader-only region, or
// after escalation).
func (mo *Monitor) dropCheckpoint() {
	mo.mu.Lock()
	ck := mo.ckpt
	mo.ckpt = nil
	mo.mu.Unlock()
	if ck != nil {
		mo.m.AddressSpace().DropSnapshot(ck)
	}
}

// Snapshots returns how many variant checkpoints the monitor captured.
func (mo *Monitor) Snapshots() int {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.snapshots
}

// Rollbacks returns how many rollback recoveries the monitor performed.
func (mo *Monitor) Rollbacks() int {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.rollbacks
}

// Escalated reports whether PolicyRollback exhausted its budget and
// escalated to kill-both.
func (mo *Monitor) Escalated() bool { return mo.escalated.Load() }

// maybeAbortRegion unwinds an abortable region whose follower is gone.
// Under PolicyRollback a dead follower means the leader's own remaining
// control flow is suspect — in the CVE-2013-2028 replay the leader is
// mid-ROP-chain at exactly this rendezvous — so instead of letting the
// region "wind down" (execute the attacker's payload and crash), control
// transfers back to the Invoke boundary, where End restores the
// checkpoint. A no-op under every other policy, for raw Start/Call/End
// callers (nothing to unwind to), once rollback has escalated, and in a
// region that captured no checkpoint.
func (s *session) maybeAbortRegion(t *machine.Thread, f *libc.Func, idx uint64) {
	mo := s.mon
	if mo.opts.Policy != PolicyRollback || !s.abortable || mo.escalated.Load() {
		return
	}
	mo.mu.Lock()
	ck := mo.ckpt
	mo.mu.Unlock()
	if ck == nil {
		return
	}
	if mo.rec != nil {
		mo.rec.Metrics().Inc("rollback.region_aborts")
	}
	t.AbortRegion(s.fn, fmt.Sprintf(
		"follower dead at %s@call%d under rollback; unwinding to checkpoint gen %d",
		f.Name, idx, ck.Generation()))
}

// rollbackOutcome is what maybeRollback decided at region exit.
type rollbackOutcome int

const (
	rollbackNone      rollbackOutcome = iota // clean region, or policy inactive
	rollbackDone                             // checkpoint restored
	rollbackEscalated                        // budget exhausted → kill-both
)

// maybeRollback runs the rollback decision at region exit, after the
// severed followers have wound down and the leader is the only thread
// touching the address space. On a diverged region it restores the
// address space to the region's last checkpoint and re-arms lockstep for
// the next region entry;
// consecutive same-ordinal rollbacks exhaust the budget and escalate to
// kill-both instead (the escalating region's alarms are re-marked
// unhandled — the paper's verdict stands). Returns what happened so End
// can fill the region report.
func (mo *Monitor) maybeRollback(s *session, leaderTID int, diverged bool) rollbackOutcome {
	if mo.opts.Policy != PolicyRollback || mo.escalated.Load() || s.leaderOnly {
		return rollbackNone
	}
	if !diverged {
		// Forward progress: a clean region resets the same-ordinal streak.
		mo.mu.Lock()
		mo.rollbackStreak = 0
		mo.lastRollbackOrdinal = 0
		mo.mu.Unlock()
		return rollbackNone
	}
	ord := s.rollbackCause.Load()
	if ord > 0 {
		ord-- // stored as ordinal+1; see raiseAlarm
	}
	mo.mu.Lock()
	ck := mo.ckpt
	if ord == mo.lastRollbackOrdinal && mo.rollbackStreak > 0 {
		mo.rollbackStreak++
	} else {
		mo.lastRollbackOrdinal = ord
		mo.rollbackStreak = 1
	}
	streak := mo.rollbackStreak
	exhausted := streak > mo.opts.RollbackBudget
	if exhausted {
		// Escalate: the streak's alarms — every divergence at this
		// root-cause ordinal — were provisionally absorbed (Handled) on
		// the promise a rollback would recover; that promise is now
		// broken, so the paper's unhandled verdict is reinstated for the
		// whole streak.
		for i := range mo.alarms {
			if mo.alarms[i].Handled && mo.alarms[i].Function == s.fn &&
				mo.alarms[i].CallIndex == ord {
				mo.alarms[i].Handled = false
			}
		}
	}
	mo.mu.Unlock()
	if exhausted {
		mo.escalated.Store(true)
		if obsRec := mo.rec; obsRec != nil {
			obsRec.Metrics().Inc("rollback.escalated")
		}
		return rollbackEscalated
	}
	if ck == nil {
		// The region captured no checkpoint: nothing to restore, but the
		// next region still re-arms full lockstep (detachFollower never
		// set the degraded flag).
		return rollbackNone
	}
	start := mo.m.Counter().Cycles()
	if err := mo.m.AddressSpace().Restore(ck); err != nil {
		// The checkpoint went stale (should not happen: only the monitor
		// captures snapshots). Surface it instead of silently skipping.
		if obsRec := mo.rec; obsRec != nil {
			obsRec.Metrics().Inc("rollback.restore_failed")
		}
		return rollbackNone
	}
	now := mo.m.Counter().Cycles()
	mo.mu.Lock()
	mo.rollbacks++
	mo.mu.Unlock()
	if lr := s.lr; lr != nil {
		lr.Add(ledger.PhaseRestore, obs.VariantLeader, ledger.ClassUnknown,
			now-start, ledger.Mark{}, 0)
	}
	if obsRec := mo.rec; obsRec != nil {
		obsRec.Record(obs.EvRollback, obs.VariantLeader, leaderTID, s.fn,
			ord, uint64(now-start), ck.Generation())
		m := obsRec.Metrics()
		m.Inc("rollback.count")
		m.Observe("rollback.recovery.cycles", uint64(now-start))
		m.SetGauge("rollback.streak", float64(streak))
	}
	return rollbackDone
}
