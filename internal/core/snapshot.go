package core

// Survivable MVX: copy-on-write variant checkpoints and the PolicyRollback
// recovery engine.
//
// Production MVX deployments treat a divergence as terminal: kill both
// variants (the paper's answer) or degrade to single-variant execution
// (dMVX-style detach). Both give up something — availability or the
// security property itself. The rollback policy keeps both: at a
// configurable virtual-cycle cadence the monitor captures a checkpoint of
// the whole variant pair at a quiescent rendezvous — the address space
// under a copy-on-write memory snapshot (region table, permissions, MPK
// keys, taint tags; see internal/sim/mem/snapshot.go), both variants'
// thread register and stack state, the pipeline ring cursors, and the
// libc-call ordinal. Every leader→follower emulation-buffer write after
// the capture is appended to a redo log. When a divergence fires, the
// monitor waits for the severed follower to wind down, restores both
// variants to the last common checkpoint in place, replays the
// post-snapshot libc tail from the redo log through the emulation write
// path (the kernel-sourced inputs are trusted; the variants' own
// post-checkpoint state is not), and re-arms full lockstep at the restored
// ordinal: the next protected region enters with a freshly cloned
// follower, never the degraded single-variant mode. Consecutive rollbacks
// pinned to the same root-cause ordinal make no forward progress; after
// RollbackBudget of them the monitor escalates to the paper's kill-both.

import (
	"fmt"
	"sync"

	"smvx/internal/obs"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// VariantSnapshot is one checkpoint of the full variant set, captured at a
// quiescent rendezvous: the rings are drained, no emulation is in flight,
// and every variant is parked at the same verified libc-call ordinal.
type VariantSnapshot struct {
	// Gen is the underlying memory snapshot's generation.
	Gen uint64
	// TS is the virtual-clock time of the capture.
	TS clock.Cycles
	// Ordinal is the session-local libc-call ordinal the checkpoint
	// anchors to — the rendezvous both variants had just verified.
	Ordinal uint64
	// Fn is the protected root function of the capturing region.
	Fn string
	// Mem is the copy-on-write address-space snapshot: leader and follower
	// regions, permissions, MPK keys, and taint tags, with per-page dirty
	// tracking armed from the capture until the next capture or the end of
	// its region, whichever comes first.
	Mem *mem.Snapshot
	// Leader and Followers are the variants' architectural thread states
	// (registers, stack top, call stack) at the capture rendezvous:
	// Followers holds every parked follower in slot order.
	Leader    obs.ThreadSnapshot
	Followers []obs.ThreadSnapshot
	// RingDepth and Drained are the pipeline ring cursors at capture:
	// records in flight on the rendezvous ring (always 0 — captures anchor
	// to quiescent points) and records the follower had verified.
	RingDepth int
	Drained   uint64
	// EmulatedBytes is the session's leader→follower copy volume at
	// capture.
	EmulatedBytes uint64
}

// redoEntry is one leader→follower emulation-buffer write: the
// kernel-sourced bytes a libc call produced, re-applied verbatim on
// rollback.
type redoEntry struct {
	ordinal uint64
	name    string
	dst     mem.Addr
	data    []byte
}

// RedoLog accumulates the emulation-buffer writes performed since the last
// checkpoint — the post-snapshot libc tail a rollback replays. Appends
// come from the leader (strict emulate) or the follower (pipelined
// applyResult) goroutine; capture and replay happen with the other
// goroutine parked, but the mutex keeps every interleaving safe.
type RedoLog struct {
	mu      sync.Mutex
	entries []redoEntry
	bytes   int
}

// NewRedoLog returns an empty redo log.
func NewRedoLog() *RedoLog { return &RedoLog{} }

// Append records one emulation write. The data slice is retained; callers
// pass buffers they do not reuse.
func (l *RedoLog) Append(ordinal uint64, name string, dst mem.Addr, data []byte) {
	l.mu.Lock()
	l.entries = append(l.entries, redoEntry{ordinal: ordinal, name: name, dst: dst, data: data})
	l.bytes += len(data)
	l.mu.Unlock()
}

// Reset clears the log (a new checkpoint owns the tail from here).
func (l *RedoLog) Reset() {
	l.mu.Lock()
	l.entries = nil
	l.bytes = 0
	l.mu.Unlock()
}

// Len returns the number of logged writes.
func (l *RedoLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Bytes returns the total payload volume logged.
func (l *RedoLog) Bytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

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

// captureCheckpoint snapshots the variant set at a quiescent rendezvous.
// Called from the rendezvous with every arrived follower parked on its
// rendezvous reply (at a pipelined barrier the rings are drained), so the
// thread states and the shared address space are race-free. parked holds
// the arrived followers in slot order. The redo log restarts here: the
// checkpoint owns the tail.
func (mo *Monitor) captureCheckpoint(s *session, leader *machine.Thread, parked []slotArrival, name string, idx uint64) {
	start := mo.m.Counter().Cycles()
	ms := mo.m.AddressSpace().Snapshot()
	ringDepth := 0
	var drained uint64
	if len(s.slots) > 0 {
		ringDepth = len(s.slots[0].ring)
		drained = s.slots[0].drained
	}
	ck := &VariantSnapshot{
		Gen:           ms.Generation(),
		TS:            start,
		Ordinal:       idx,
		Fn:            s.fn,
		Mem:           ms,
		Leader:        mo.snapshot("leader", leader),
		RingDepth:     ringDepth,
		Drained:       drained,
		EmulatedBytes: s.emulatedBytes.Load(),
	}
	for _, a := range parked {
		if a.rec.thread != nil {
			ck.Followers = append(ck.Followers, mo.snapshot("follower", a.rec.thread))
		}
	}
	mo.redo.Reset()
	mo.mu.Lock()
	mo.ckpt = ck
	mo.snapshots++
	mo.mu.Unlock()
	s.snapped = true
	now := mo.m.Counter().Cycles()
	mo.lastSnapAt = now
	if lr := s.lr; lr != nil {
		lr.Add(ledger.PhaseSnapshot, obs.VariantLeader, ledger.ClassOf(name),
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
// it, and its redo tail goes with it. A no-op when the region captured
// none (a leader-only region, or after escalation).
func (mo *Monitor) dropCheckpoint() {
	mo.mu.Lock()
	ck := mo.ckpt
	mo.ckpt = nil
	mo.mu.Unlock()
	if ck == nil {
		return
	}
	mo.m.AddressSpace().DropSnapshot(ck.Mem)
	mo.redo.Reset()
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
func (s *session) maybeAbortRegion(t *machine.Thread, name string, idx uint64) {
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
		name, idx, ck.Gen))
}

// rollbackOutcome is what maybeRollback decided at region exit.
type rollbackOutcome int

const (
	rollbackNone      rollbackOutcome = iota // clean region, or policy inactive
	rollbackDone                             // restored + replayed
	rollbackEscalated                        // budget exhausted → kill-both
)

// maybeRollback runs the rollback decision at region exit, after the
// severed follower has wound down and the leader is the only thread
// touching the address space. On a diverged region it restores both
// variants to the region's last checkpoint, replays the redo tail through
// the emulation write path, and re-arms lockstep for the next region entry;
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
	if err := mo.m.AddressSpace().Restore(ck.Mem); err != nil {
		// The checkpoint went stale (should not happen: only the monitor
		// captures snapshots). Surface it instead of silently skipping.
		if obsRec := mo.rec; obsRec != nil {
			obsRec.Metrics().Inc("rollback.restore_failed")
		}
		return rollbackNone
	}
	replayedBytes := mo.replayRedo()
	now := mo.m.Counter().Cycles()
	mo.mu.Lock()
	mo.rollbacks++
	mo.mu.Unlock()
	if lr := s.lr; lr != nil {
		lr.Add(ledger.PhaseRestore, obs.VariantLeader, ledger.ClassUnknown,
			now-start, ledger.Mark{}, uint64(replayedBytes))
	}
	if obsRec := mo.rec; obsRec != nil {
		obsRec.Record(obs.EvRollback, obs.VariantLeader, leaderTID, s.fn,
			ord, uint64(now-start), ck.Gen)
		m := obsRec.Metrics()
		m.Inc("rollback.count")
		m.Observe("rollback.recovery.cycles", uint64(now-start))
		m.Add("rollback.redo.bytes", uint64(replayedBytes))
		m.SetGauge("rollback.streak", float64(streak))
	}
	return rollbackDone
}

// replayRedo re-applies the post-snapshot libc tail: every emulation
// write logged since the restored checkpoint lands again through the same
// address-space write path (with taint propagation and the per-byte copy
// charge), bringing the kernel-sourced inputs forward over the rewound
// memory. Returns bytes replayed. The log survives the replay — it still
// describes the tail of the active checkpoint, and a repeat rollback to
// the same checkpoint replays the same tail.
func (mo *Monitor) replayRedo() int {
	as := mo.m.AddressSpace()
	costs := mo.m.Costs()
	total := 0
	mo.redo.mu.Lock()
	entries := append([]redoEntry(nil), mo.redo.entries...)
	mo.redo.mu.Unlock()
	for _, e := range entries {
		if err := as.WriteAt(e.dst, e.data); err != nil {
			// The destination page vanished with the rewind (it was born
			// after the capture); the write that created it replays later
			// in the log, so a miss here is not fatal.
			continue
		}
		total += len(e.data)
	}
	mo.m.ChargeThread(nil, costs.LockstepCopyPerByte*cyclesOf(total))
	return total
}
