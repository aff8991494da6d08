package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// callResult modes.
const (
	modeEmulated = iota + 1
	modeLocal
	modeAbort
	modeDetach
)

// callRecord is a follower's half of one lockstep rendezvous, sent to the
// leader over the (simulated shared-memory) IPC channel. wire is the
// varint-framed encoding of (name, args) — what actually crosses the ring;
// the leader decodes it rather than trusting the in-memory fields. thread
// is the follower's machine thread: while the follower blocks on resp the
// leader may snapshot it for forensics (the send on req established the
// happens-before edge).
type callRecord struct {
	name   string
	args   []uint64
	wire   []byte
	thread *machine.Thread
	resp   chan callResult
	// lag is how many cycles the follower charged since its previous
	// rendezvous — its own work getting here. Unlike a shared-counter
	// elapsed-time measurement it does not depend on how the variants'
	// goroutines interleave, so the deadline verdict is deterministic.
	lag clock.Cycles
}

// callResult is the leader's reply: either the emulated result, an
// instruction to execute locally (user-space calls), or an abort.
type callResult struct {
	mode  int
	ret   uint64
	errno kernel.Errno
}

// followerSlot is one follower variant's seat in the variant set: its
// address-space window (delta), thread identity, IPC lanes (the rendezvous
// channel and the pipelined run-ahead ring with its own drain cursor), and
// per-slot lifecycle state (death, policy detach).
type followerSlot struct {
	id    int   // 1-based slot index; window sits at id*Delta
	delta int64 // this slot's address-window shift

	tid    int
	thread *kernel.Thread

	req  chan *callRecord   // rendezvous lane: strict calls and pipelined barriers
	ring chan *leaderRecord // pipelined run-ahead lane

	// drained counts records this slot has verified; fCycles is the slot
	// thread's cycle total at its previous rendezvous. Both are touched
	// only by the slot's own goroutine (or by the leader while the slot is
	// parked on a rendezvous reply).
	drained uint64
	fCycles clock.Cycles

	deadOnce sync.Once
	dead     chan struct{}
	err      error

	detachOnce sync.Once
	detachCh   chan struct{}
}

// markDead records the slot's termination (normal or crash) and wakes the
// leader if it is blocked on a rendezvous with this slot.
func (sl *followerSlot) markDead(err error) {
	sl.deadOnce.Do(func() {
		sl.err = err
		close(sl.dead)
	})
}

// detached reports whether the policy severed this slot from lockstep.
func (sl *followerSlot) detached() bool {
	select {
	case <-sl.detachCh:
		return true
	default:
		return false
	}
}

// lag returns the cycles the slot's thread t charged since its previous
// rendezvous and restarts the count.
func (sl *followerSlot) lag(t *machine.Thread) clock.Cycles {
	cyc := t.UserCycles()
	lag := cyc - sl.fCycles
	sl.fCycles = cyc
	return lag
}

// drainPending clears any rendezvous record the follower published before
// the detach, replying with the detach verdict so it never blocks on resp.
func (sl *followerSlot) drainPending() {
	for {
		select {
		case rec := <-sl.req:
			rec.resp <- callResult{mode: modeDetach}
		default:
			return
		}
	}
}

// session is one active protected region: the leader plus the variant
// set's follower slots in lockstep. Channels model the shared-memory IPC
// ring with its mutexes and condition variables (Section 3.2).
type session struct {
	mon   *Monitor
	fn    string
	delta int64 // base window shift; slot k sits at k*delta

	leaderTID int
	slots     []*followerSlot

	leaderDone chan struct{}

	// Pipelined lockstep state (see pipeline.go): each slot's ring is the
	// bounded run-ahead queue of leader call records; the lag window is
	// bounded by the slowest slot's cursor (a full ring blocks the leader).
	pipelined bool

	// Containment state (see policy.go): timedOut is closed when a
	// rendezvous deadline blows; watchStop ends the watchdog goroutine at
	// region exit. waitingSince is the leader's current rendezvous wait
	// start (cycles+1; 0 = not waiting), polled by the watchdog.
	timeoutOnce  sync.Once
	timedOut     chan struct{}
	watchOnce    sync.Once
	watchStop    chan struct{}
	waitingSince atomic.Int64

	leaderOnly bool // degraded session that never had a follower
	restarted  bool // session whose followers are a policy re-clone
	abortable  bool // region entered via Invoke: a guarded frame can catch a mid-flight abort

	// Rollback state (PolicyRollback; see snapshot.go): snapped marks that
	// this region captured its entry checkpoint (leader goroutine only);
	// rollbackCause holds the root-cause ordinal of the region's first
	// alarm, stored as ordinal+1 so zero means "no alarm yet".
	snapped       bool
	rollbackCause atomic.Uint64

	calls         atomic.Uint64
	emulatedBytes atomic.Uint64
	diverged      atomic.Bool

	// lr is this region's cost-ledger bucket (nil when no ledger is
	// attached; every method on a nil Region is a free no-op).
	lr *ledger.Region

	// arrivals holds the records collected at the leader's current
	// rendezvous (leader goroutine only). It lives here, not in the
	// rendezvous frame: a frame that large can grow the leader's stack on
	// entry, and that host delay before the wait starts lets the
	// followers' concurrent charges drop out of the measured wait.
	arrivals [MaxVariants - 1]slotArrival
}

func newSession(mon *Monitor, fn string, delta int64, leaderTID int) *session {
	s := &session{
		mon:        mon,
		fn:         fn,
		delta:      delta,
		leaderTID:  leaderTID,
		leaderDone: make(chan struct{}),
		timedOut:   make(chan struct{}),
		watchStop:  make(chan struct{}),
		pipelined:  mon.opts.Lockstep == LockstepPipelined,
		lr:         mon.led.Region(fn),
	}
	n := mon.numFollowers()
	s.slots = make([]*followerSlot, n)
	for i := 0; i < n; i++ {
		s.slots[i] = &followerSlot{
			id:       i + 1,
			delta:    delta * int64(i+1),
			req:      make(chan *callRecord),
			ring:     make(chan *leaderRecord, mon.opts.LagWindow),
			dead:     make(chan struct{}),
			detachCh: make(chan struct{}),
		}
	}
	return s
}

// attached appends the slots the policy has not severed to buf, in slot
// order. Callers pass a stack buffer of MaxVariants-1 slots.
func (s *session) attached(buf []*followerSlot) []*followerSlot {
	for _, sl := range s.slots {
		if !sl.detached() {
			buf = append(buf, sl)
		}
	}
	return buf
}

// allSlotsDead reports whether every slot's thread has terminated.
func (s *session) allSlotsDead() bool {
	for _, sl := range s.slots {
		select {
		case <-sl.dead:
		default:
			return false
		}
	}
	return true
}

// liveAttached counts slots that are neither detached nor dead.
func (s *session) liveAttached() int {
	n := 0
	for _, sl := range s.slots {
		if sl.detached() {
			continue
		}
		select {
		case <-sl.dead:
		default:
			n++
		}
	}
	return n
}

// slotByTID maps a thread ID to its follower slot (nil for the leader or
// unrelated threads). The slot count is tiny; a linear scan beats a map.
func (s *session) slotByTID(tid int) *followerSlot {
	for _, sl := range s.slots {
		if sl.tid == tid && tid != 0 {
			return sl
		}
	}
	return nil
}

// rejectFollower answers a diverging rendezvous per the policy: kill-both
// aborts the follower with ErrDivergence (the paper's behaviour),
// containment detaches it. Detach bookkeeping runs before the reply so the
// backoff timestamp is read while the follower is still parked on resp.
func (s *session) rejectFollower(sl *followerSlot, rec *callRecord, cause string) {
	if s.mon.contain() {
		s.mon.detachFollower(s, sl, cause)
		rec.resp <- callResult{mode: modeDetach}
		return
	}
	rec.resp <- callResult{mode: modeAbort}
}

// tripTimeout wakes whoever is blocked on the session's rendezvous.
func (s *session) tripTimeout() {
	s.timeoutOnce.Do(func() { close(s.timedOut) })
}

// stopWatch ends the deadline watchdog at region exit.
func (s *session) stopWatch() {
	s.watchOnce.Do(func() { close(s.watchStop) })
}

// Watchdog tuning: the poll interval, and how many consecutive polls with a
// frozen virtual clock (leader waiting, no cycles charged anywhere) trip
// the deadline early.
const (
	watchdogPoll        = 2 * time.Millisecond
	watchdogFrozenPolls = 250
)

// watch is the rendezvous deadline watchdog: a real-time poller that trips
// the session's timeout when the leader has waited past the virtual-cycle
// deadline, or — the frozen-clock breaker — when the leader is waiting and
// virtual time has stopped advancing entirely (a follower hung off-CPU
// charges no cycles, so a purely virtual deadline would never fire).
// Stalls that do charge cycles are caught deterministically from the
// arrived record's lag in rendezvous; the watchdog covers followers that
// never arrive at all.
func (s *session) watch(deadline clock.Cycles) {
	ticker := time.NewTicker(watchdogPoll)
	defer ticker.Stop()
	frozenFor := 0
	var lastWait int64
	var lastNow clock.Cycles
	for {
		select {
		case <-s.watchStop:
			return
		case <-ticker.C:
		}
		if s.allSlotsDead() {
			return
		}
		w := s.waitingSince.Load()
		now := s.mon.m.Counter().Cycles()
		if w == 0 {
			frozenFor = 0
			lastWait = 0
			continue
		}
		if now-clock.Cycles(w-1) >= deadline {
			s.tripTimeout()
			return
		}
		if w == lastWait && now == lastNow {
			frozenFor++
			if frozenFor >= watchdogFrozenPolls {
				s.tripTimeout()
				return
			}
		} else {
			frozenFor = 0
		}
		lastWait, lastNow = w, now
	}
}

// leaderCall runs the leader's side of one lockstep libc call: a full
// rendezvous with every attached follower slot. Pipelined sessions branch
// into the run-ahead engine (pipeline.go).
func (s *session) leaderCall(t *machine.Thread, name string, args []uint64) uint64 {
	if s.pipelined {
		return s.leaderCallPipelined(t, name, args)
	}
	idx := s.calls.Add(1)
	var buf [MaxVariants - 1]*followerSlot
	att := s.attached(buf[:0])
	if len(att) == 0 {
		// Degraded single-variant mode after a policy detach: no
		// rendezvous to charge or wait for. Under rollback the detach means
		// a follower faulted — unwind instead of running un-replicated.
		s.maybeAbortRegion(t, name, idx)
		return s.mon.lib.Call(t, name, args)
	}
	return s.rendezvous(t, name, args, idx, att, false)
}

// slotArrival pairs a follower slot with the call record it published at a
// rendezvous; args is the record's decoded argument list once resolve has
// counted the slot among the winners.
type slotArrival struct {
	slot *followerSlot
	rec  *callRecord
	args []uint64
}

// rendezvous runs one full rendezvous of the leader with the given slots at
// call idx — every strict call, and every pipelined barrier, which first
// publishes its barrier record on each slot's ring: charge the entry cost
// per slot, collect each slot's record, sever the slots that arrived past
// the deadline, and resolve the rest by vote. When no slot arrives at all
// (each died, severed itself, or was timed out) nothing was verified and no
// rendezvous is recorded: the region unwinds under rollback — the leader
// may be executing hijacked control flow — and otherwise the leader runs
// the call un-replicated so the region can wind down.
func (s *session) rendezvous(t *machine.Thread, name string, args []uint64, idx uint64, slots []*followerSlot, barrier bool) uint64 {
	entry := s.mon.m.Costs().LockstepRendezvous * clock.Cycles(len(slots))
	s.mon.m.ChargeThread(t, entry)
	obsRec := s.mon.rec
	waitStart := s.mon.m.Counter().Cycles()
	var span obs.RendezvousSpan
	if obsRec != nil {
		if barrier {
			obsRec.Metrics().Inc(obs.MetricLockstepBarrier)
		}
		span = obsRec.BeginRendezvousSpan(obs.VariantLeader, t.TID(), name,
			uint64(libc.CategoryOf(name)))
	}
	phase := ledger.PhaseRendezvous
	if barrier {
		phase = ledger.PhaseBarrier
		slots, _, _ = s.publish(t, name, args, idx, slots, 0, 0)
	}
	s.waitingSince.Store(int64(waitStart) + 1)
	arr := s.collect(t, slots, name, idx, s.arrivals[:0])
	s.waitingSince.Store(0)
	if len(arr) == 0 {
		s.maybeAbortRegion(t, name, idx)
		ret := s.mon.lib.Call(t, name, args)
		span.End(ret)
		return ret
	}
	wait := s.mon.m.Counter().Cycles() - waitStart
	t.AddWaitCycles(wait)
	if obsRec != nil {
		obsRec.Metrics().Observe("lockstep.wait.cycles", uint64(wait))
		obsRec.Metrics().Observe(obs.MetricRendezvousLeaderCycles, uint64(entry+wait))
		obsRec.ObserveSeries(obs.SeriesRendezvous, uint64(entry+wait))
	}
	if lr := s.lr; lr != nil {
		// The two charges sum to exactly what the rendezvous.leader.cycles
		// histogram observed above — the ledger/histogram reconciliation
		// invariant. A barrier's wait started before its ring appends, so
		// it folds in any backpressure the barrier record hit.
		cls := ledger.ClassOf(name)
		lr.Add(phase, obs.VariantLeader, cls, entry, ledger.Mark{}, 0)
		lr.Add(ledger.PhaseWait, obs.VariantLeader, cls, wait, ledger.Mark{}, 0)
	}
	if d := s.mon.opts.RendezvousDeadline; d > 0 {
		// A slot that arrived, but only after stalling past the deadline, is
		// severed. rec.lag (the follower's own cycles since its previous
		// rendezvous) is independent of how the goroutines interleaved.
		kept := arr[:0]
		for _, a := range arr {
			if a.rec.lag > d {
				s.rendezvousTimeout(t, a.slot, a.rec, name, idx)
				continue
			}
			kept = append(kept, a)
		}
		arr = kept
	}
	ret := s.resolve(t, name, args, arr, idx)
	span.End(ret)
	return ret
}

// collect waits for each slot's rendezvous record in slot order and
// appends the arrivals to arr. Once the session deadline trips, each
// remaining slot is granted the pipeline grace window; a slot that still
// has not arrived is declared wedged and timed out. A slot that died
// instead of arriving marks the region diverged; its variant waiter raises
// the follower-fault alarm.
func (s *session) collect(t *machine.Thread, slots []*followerSlot, name string, idx uint64, arr []slotArrival) []slotArrival {
	graced := false
	for _, sl := range slots {
		var rec *callRecord
		if !graced {
			select {
			case rec = <-sl.req:
			case <-sl.dead:
			case <-s.timedOut:
				graced = true
			}
		}
		if rec == nil && graced {
			select {
			case rec = <-sl.req:
			case <-sl.dead:
			case <-time.After(pipelineGrace):
				s.rendezvousTimeout(t, sl, nil, name, idx)
			}
		}
		if rec != nil {
			arr = append(arr, slotArrival{slot: sl, rec: rec})
			continue
		}
		select {
		case <-sl.dead:
			s.diverged.Store(true)
		default:
		}
	}
	return arr
}

// resolve finishes a rendezvous once the arrived records are in: decode
// each into a ballot, vote, quarantine the losers, then execute the call
// once and emulate its results to the followers that voted with the
// leader. A lone follower ballot that loses raises the pairwise compare's
// own alarm (call or argument mismatch); among more ballots a loser is
// outvoted. When no follower votes with the leader it runs the call alone.
func (s *session) resolve(t *machine.Thread, name string, args []uint64, arr []slotArrival, idx uint64) uint64 {
	if len(arr) > 0 && s.mon.snapshotDue(s) {
		// A quiescent anchor point: every arrived variant is parked at the
		// same ordinal (in pipelined mode this is a barrier, so the rings are
		// drained) and no emulation is in flight. The checkpoint lands
		// before this call's divergence checks — a rendezvous that fails
		// them below was still quiescent when captured, and the budget
		// catches a checkpoint that keeps absorbing the same divergence.
		s.mon.captureCheckpoint(s, t, arr, name, idx)
	}
	// Ballot 0 is the leader; ballot i+1 is arr[i]. A record that does not
	// frame cannot be compared, which is itself a divergence (that slot's
	// monitor half wrote garbage): its ballot is invalid and the slot is
	// rejected right away.
	cmpMark := s.lr.Mark()
	var bb [MaxVariants]Ballot
	ballots := append(bb[:0], Ballot{Name: name, Args: args, Valid: true})
	var wireBytes uint64
	valid := 0
	for _, a := range arr {
		fname, fargs, err := decodeCallRecord(a.rec.wire)
		wireBytes += uint64(len(a.rec.wire))
		ballots = append(ballots, Ballot{Variant: VariantID(a.slot.id), Name: fname, Args: fargs, Valid: err == nil})
		if err == nil {
			valid++
			continue
		}
		s.mon.raiseAlarm(Alarm{
			Reason: AlarmCallMismatch, CallIndex: idx, Function: s.fn,
			LeaderCall: name, Variant: VariantID(a.slot.id),
			Detail: fmt.Sprintf("corrupt IPC call record: %v", err),
		}, s.rendezvousSnapshots(t, a.rec)...)
		s.diverged.Store(true)
		s.rejectFollower(a.slot, a.rec, "ipc-corruption")
	}
	res := Vote(ballots)
	obsRec := s.mon.rec
	if res.Winner != 0 {
		// The followers outvoted the leader. The leader is the only variant
		// wired to the kernel, so it still executes — but the whole set is
		// suspect: the alarm names variant 0 and every follower is rejected
		// per the policy (kill-both aborts them, containment detaches).
		maj := ballots[res.Winner]
		s.mon.raiseAlarm(Alarm{
			Reason: AlarmOutvoted, CallIndex: idx, Function: s.fn,
			LeaderCall: name, FollowerCall: maj.Name, Variant: 0,
			Detail: fmt.Sprintf("leader outvoted %d-to-1 at %s: majority called %s",
				res.Majority, name, maj.Name),
		})
		s.diverged.Store(true)
		if obsRec != nil {
			obsRec.Metrics().Inc("vote.leader_outvoted")
		}
		for i, a := range arr {
			if ballots[i+1].Valid {
				s.rejectFollower(a.slot, a.rec, "outvoted")
			}
		}
		s.maybeAbortRegion(t, name, idx)
		return s.mon.lib.Call(t, name, args)
	}

	// Leader in the majority: quarantine each losing follower; the
	// winners are filtered into arr's prefix.
	winners := arr[:0]
	for i, a := range arr {
		b := ballots[i+1]
		if !b.Valid {
			continue // rejected above
		}
		if !res.Lost(i + 1) {
			a.args = b.Args
			winners = append(winners, a)
			continue
		}
		var alarm Alarm
		cause := "outvoted"
		if valid == 1 {
			v := compareCalls(name, args, b.Name, b.Args)
			alarm, cause = v.alarm(s.fn, idx, name, b.Name), v.cause()
		} else {
			alarm = Alarm{
				Reason: AlarmOutvoted, CallIndex: idx, Function: s.fn,
				LeaderCall: name, FollowerCall: b.Name,
				Detail: fmt.Sprintf("variant %d outvoted %d-to-1 at call %s: it called %s",
					a.slot.id, res.Majority, name, b.Name),
			}
			if obsRec != nil {
				obsRec.Metrics().Inc("vote.follower_outvoted")
			}
		}
		alarm.Variant = VariantID(a.slot.id)
		s.mon.raiseAlarm(alarm, s.rendezvousSnapshots(t, a.rec)...)
		s.diverged.Store(true)
		s.rejectFollower(a.slot, a.rec, cause)
	}
	if len(winners) == 0 {
		return s.mon.lib.Call(t, name, args)
	}

	cat := libc.CategoryOf(name)
	if obsRec != nil {
		obsRec.Record(obs.EvLockstep, obs.VariantLeader, t.TID(), name, uint64(cat), idx, 0)
		obsRec.Metrics().Inc("lockstep.category." + cat.Slug())
	}
	if lr := s.lr; lr != nil {
		// Decode+compare charges no virtual cycles (the cost model folds it
		// into the rendezvous entry); the ledger still counts occurrences,
		// allocations, and the wire volume verified.
		lr.Add(ledger.PhaseCompare, obs.VariantLeader, ledger.ClassOf(name),
			0, cmpMark, wireBytes)
	}
	ret := s.mon.lib.Call(t, name, args)
	if cat == libc.CatLocal {
		// User-space call: each variant executes in its own space.
		for _, w := range winners {
			w.rec.resp <- callResult{mode: modeLocal}
		}
		return ret
	}
	// Leader-only execution: each winning follower receives return value,
	// errno, and output buffers over its own IPC lane. The replies go out
	// only once the emulation is recorded, so the released followers'
	// events never interleave with it.
	errno := t.Errno()
	var esp obs.EmulationSpan
	if obsRec != nil {
		esp = obsRec.BeginEmulationSpan(obs.VariantLeader, t.TID(), name, uint64(cat))
	}
	emuMark := s.lr.Mark()
	total := 0
	var faulted uint16
	for i, w := range winners {
		copied, efault := s.emulate(name, args, w.args, ret, idx, w.slot.delta)
		total += copied
		if efault {
			faulted |= 1 << i
		}
	}
	esp.End(uint64(total))
	if lr := s.lr; lr != nil {
		lr.Add(ledger.PhaseEmulate, obs.VariantLeader, ledger.ClassOf(name),
			s.mon.m.Costs().LockstepCopyPerByte*cyclesOf(total), emuMark, uint64(total))
	}
	s.emulatedBytes.Add(uint64(total))
	if obsRec != nil {
		obsRec.Record(obs.EvEmulated, obs.VariantLeader, t.TID(), name, uint64(total), 0, ret)
		obsRec.Metrics().Add("lockstep.emulated.bytes", uint64(total))
	}
	for i, w := range winners {
		if faulted&(1<<i) != 0 && s.mon.contain() {
			// The follower's result buffer is gone; it cannot keep up.
			s.mon.detachFollower(s, w.slot, "emulation-fault")
			w.rec.resp <- callResult{mode: modeDetach}
			continue
		}
		w.rec.resp <- callResult{mode: modeEmulated, ret: ret, errno: errno}
	}
	return ret
}

// rendezvousTimeout raises AlarmRendezvousTimeout against slot sl at call
// idx and severs the slot per the policy. rec is the slot's record when it
// arrived past the deadline; nil means the slot never arrived (or stopped
// draining its ring) before the watchdog's grace ran out.
func (s *session) rendezvousTimeout(t *machine.Thread, sl *followerSlot, rec *callRecord, name string, idx uint64) {
	d := s.mon.opts.RendezvousDeadline
	a := Alarm{
		Reason: AlarmRendezvousTimeout, CallIndex: idx, Function: s.fn,
		LeaderCall: name, Variant: VariantID(sl.id),
		Detail: fmt.Sprintf("variant %d missed the %d-cycle rendezvous deadline", sl.id, d),
	}
	if rec != nil {
		a.FollowerCall = rec.name
		a.Detail = fmt.Sprintf("variant %d arrived %d cycles into a %d-cycle rendezvous deadline",
			sl.id, rec.lag, d)
	}
	s.mon.raiseAlarm(a, s.rendezvousSnapshots(t, rec)...)
	s.diverged.Store(true)
	s.mon.rec.Metrics().Inc("rendezvous.timeout")
	if rec != nil {
		s.rejectFollower(sl, rec, "rendezvous-timeout")
		return
	}
	s.mon.detachFollower(s, sl, "rendezvous-timeout")
}

// rendezvousSnapshots captures the leader's thread state and, when rec is
// non-nil, the parked follower's, for the forensics report. The follower
// is blocked on the resp channel, so reading its thread is race-free (see
// callRecord). Snapshots are captured only when a recorder is attached.
func (s *session) rendezvousSnapshots(leader *machine.Thread, rec *callRecord) []obs.ThreadSnapshot {
	if s.mon.rec == nil {
		return nil
	}
	snaps := []obs.ThreadSnapshot{s.mon.snapshot("leader", leader)}
	if rec != nil && rec.thread != nil {
		snaps = append(snaps, s.mon.snapshot("follower", rec.thread))
	}
	return snaps
}

// followerSnapshots captures only the calling follower's own thread: the
// leader runs ahead (or has left the region) concurrently.
func (s *session) followerSnapshots(t *machine.Thread) []obs.ThreadSnapshot {
	if s.mon.rec == nil {
		return nil
	}
	return []obs.ThreadSnapshot{s.mon.snapshot("follower", t)}
}

// followerCall runs one follower slot's side of a lockstep call: a full
// rendezvous. Pipelined sessions drain the slot's rendezvous ring instead
// (pipeline.go).
func (s *session) followerCall(t *machine.Thread, sl *followerSlot, name string, args []uint64) uint64 {
	if s.pipelined {
		return s.followerCallPipelined(t, sl, name, args)
	}
	return s.followerRendezvous(t, sl, name, args, sl.lag(t))
}

// followerRendezvous runs one follower slot's side of a full rendezvous —
// every strict call, and every pipelined barrier once the ring before it
// has drained: publish the call on the slot's rendezvous lane, wait for
// the leader's verdict, and apply it. lag is the slot's own cycles since
// its previous rendezvous.
func (s *session) followerRendezvous(t *machine.Thread, sl *followerSlot, name string, args []uint64, lag clock.Cycles) uint64 {
	fv := obs.FollowerVariant(sl.id)
	mshMark := s.lr.Mark()
	rec := &callRecord{
		name: name, args: args, wire: encodeCallRecord(name, args),
		thread: t, resp: make(chan callResult, 1), lag: lag,
	}
	lr := s.lr
	var cls ledger.Class
	var fwaitStart clock.Cycles
	if lr != nil {
		cls = ledger.ClassOf(name)
		lr.Add(ledger.PhaseMarshal, fv, cls, 0, mshMark, uint64(len(rec.wire)))
		fwaitStart = s.mon.m.Counter().Cycles()
	}
	obsRec := s.mon.rec
	var arriveTS clock.Cycles
	if obsRec != nil {
		arriveTS = s.mon.m.Counter().Cycles()
	}
	select {
	case sl.req <- rec:
	case <-sl.detachCh:
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDetached})
	case <-s.leaderDone:
		s.overrun(t, sl, name)
	}
	// Once published, the record is answered: by the leader, or with the
	// detach verdict by drainPending.
	res := <-rec.resp
	if lr != nil {
		lr.Add(ledger.PhaseWait, fv, cls,
			s.mon.m.Counter().Cycles()-fwaitStart, ledger.Mark{}, 0)
	}
	if res.mode == modeLocal {
		// lib.Call records the follower's enter/exit events itself.
		return s.mon.lib.Call(t, name, args)
	}
	// The follower never reaches libc for this call, so record the pair
	// here: enter back-dated to the rendezvous arrival, exit when the
	// emulated result lands.
	if obsRec != nil {
		obsRec.RecordInAt(arriveTS, t.Fn(), obs.EvLibcEnter, fv, t.TID(), name,
			argAt(args, 0), argAt(args, 1), 0)
	}
	switch res.mode {
	case modeEmulated:
		if obsRec != nil {
			obsRec.RecordIn(t.Fn(), obs.EvLibcExit, fv, t.TID(), name, 0, 0, res.ret)
		}
		t.SetErrno(res.errno)
		return res.ret
	case modeDetach:
		// The policy severed this follower; wind it down without a fresh
		// divergence panic.
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDetached})
	default:
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDivergence})
	}
}

// overrun handles a follower call issued after the leader finished the
// region: a severed slot just winds down; otherwise the follower is
// executing calls the leader never made — a sequence divergence. Never
// returns.
func (s *session) overrun(t *machine.Thread, sl *followerSlot, name string) {
	if sl.detached() {
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDetached})
	}
	s.mon.raiseAlarm(Alarm{
		Reason: AlarmSequenceLength, CallIndex: s.calls.Load(), Function: s.fn,
		FollowerCall: name, Variant: VariantID(sl.id),
		Detail: fmt.Sprintf("follower issued %s after leader finished the region", name),
	}, s.followerSnapshots(t)...)
	s.diverged.Store(true)
	panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDivergence})
}

// emulate copies the leader's output buffers into one follower's
// corresponding buffers, translating embedded pointers for the special
// category, and returns bytes copied plus whether a follower destination
// buffer was unwritable (AlarmEmulationFault raised). delta is the target
// slot's window shift — pointer rebasing lands in that slot's window.
// Copies run with monitor privileges (raw address-space access — the
// monitor's PKRU has every key enabled).
func (s *session) emulate(name string, leaderArgs, followerArgs []uint64, ret uint64, idx uint64, delta int64) (int, bool) {
	as := s.mon.m.AddressSpace()
	costs := s.mon.m.Costs()
	faulted := false
	copyBuf := func(argIdx, n int) int {
		if n <= 0 {
			return 0
		}
		src := mem.Addr(argAt(leaderArgs, argIdx))
		dst := mem.Addr(argAt(followerArgs, argIdx))
		if src == 0 || dst == 0 {
			return 0
		}
		buf := make([]byte, n)
		if err := as.ReadAt(src, buf); err != nil {
			return 0
		}
		if err := as.WriteAt(dst, buf); err != nil {
			// The follower's destination buffer is unmapped or
			// unwritable — a corrupted follower. Attribute it precisely
			// so replay diffing can tell it apart from the generic
			// divergence the stale data would cause later.
			s.mon.raiseAlarm(Alarm{
				Reason: AlarmEmulationFault, CallIndex: idx, Function: s.fn,
				LeaderCall: name, Variant: VariantID(int(delta / s.delta)),
				Detail: fmt.Sprintf("emulation copy of %d bytes into follower buffer %#x failed: %v",
					n, dst, err),
			})
			s.diverged.Store(true)
			faulted = true
			return 0
		}
		_ = as.CopyTaint(dst, src, n)
		s.mon.m.ChargeThread(nil, costs.LockstepCopyPerByte*cyclesOf(n))
		if s.mon.opts.Policy == PolicyRollback {
			// The kernel-sourced bytes just landed in the follower's
			// buffer; log them so a rollback can replay the post-snapshot
			// libc tail (buf is freshly allocated per call — safe to keep).
			s.mon.redo.Append(idx, name, dst, buf)
		}
		return n
	}

	retN := 0
	if int64(ret) > 0 {
		retN = int(int64(ret))
	}
	copied := 0
	switch name {
	case "read", "recv":
		copied = copyBuf(1, retN)
	case "stat", "fstat":
		copied = copyBuf(1, 24)
	case "gettimeofday":
		copied = copyBuf(0, 16)
	case "time":
		copied = copyBuf(0, 8)
	case "localtime_r":
		copied = copyBuf(1, 64)
	case "getsockopt":
		copied = copyBuf(2, 8)
	case "ioctl":
		// Special: the third argument is emulated only when it looks like
		// a pointer into the process's address space (Section 3.3).
		if s.inLeaderSpace(mem.Addr(argAt(leaderArgs, 2))) {
			copied = copyBuf(2, 8)
		}
	case "epoll_wait", "epoll_pwait":
		// Special: copy the events array; epoll_data entries that are
		// pointers into the leader's space must be rebased into the
		// follower's window (Section 3.3).
		n := retN
		src := mem.Addr(argAt(leaderArgs, 1))
		dst := mem.Addr(argAt(followerArgs, 1))
		total := 0
		for i := 0; i < n; i++ {
			var entry [16]byte
			if err := as.ReadAt(src+mem.Addr(i*16), entry[:]); err != nil {
				break
			}
			data := fromLE(entry[8:])
			if s.inLeaderSpace(mem.Addr(data)) {
				data = uint64(int64(data) + delta)
				toLE(entry[8:], data)
			}
			if err := as.WriteAt(dst+mem.Addr(i*16), entry[:]); err != nil {
				break
			}
			if s.mon.opts.Policy == PolicyRollback {
				s.mon.redo.Append(idx, name, dst+mem.Addr(i*16), append([]byte(nil), entry[:]...))
			}
			total += 16
		}
		s.mon.m.ChargeThread(nil, costs.LockstepCopyPerByte*cyclesOf(total))
		copied = total
	}
	return copied, faulted
}

// inLeaderSpace reports whether v falls inside the leader's image or heap —
// the "falls within the process's address space" test for special-category
// emulation.
func (s *session) inLeaderSpace(v mem.Addr) bool {
	img := s.mon.img
	if v >= img.Base && v < img.End() {
		return true
	}
	if h := s.mon.lib.Heap(0); h != nil {
		if v >= s.mon.leaderHeapBase() && v < s.mon.lib.HeapWatermark(0) {
			return true
		}
	}
	return false
}

// scalarMismatch compares the non-pointer arguments of a libc call between
// variants, returning the first differing pair.
func scalarMismatch(name string, leader, follower []uint64) (bad bool, l, f uint64) {
	if len(leader) != len(follower) {
		return true, uint64(len(leader)), uint64(len(follower))
	}
	mask := scalarArgMasks[name]
	for i := 0; i < len(leader) && i < len(mask); i++ {
		if mask[i] && leader[i] != follower[i] {
			return true, leader[i], follower[i]
		}
	}
	return false, 0, 0
}

// ScalarArgMask returns, per argument position of a libc call, whether the
// value is a scalar (comparable across variants) as opposed to a pointer
// (whose value legitimately differs between the variants' non-overlapping
// address windows). Positions beyond the mask are not comparable. This is
// the rendezvous check's own table, exported so offline analysis
// (internal/obs/replay) applies the exact same pointer semantics when
// diffing a recorded leader stream against its follower stream. The
// returned slice is shared: callers must not modify it.
func ScalarArgMask(name string) []bool { return scalarArgMasks[name] }

// ScalarRet reports whether a libc call's return value is a scalar,
// comparable across variants. Allocation and buffer calls return pointers
// into the calling variant's own window, so their values differ between
// variants by construction.
func ScalarRet(name string) bool {
	switch name {
	case "malloc", "calloc", "realloc", "memcpy", "memset", "localtime_r":
		return false
	default:
		return true
	}
}

// scalarArgMasks is the table behind ScalarArgMask. The masks are shared
// and read-only, so the rendezvous compare allocates nothing.
var scalarArgMasks = map[string][]bool{
	"open":         {false, true},
	"mkdir":        {false, true},
	"stat":         {false, false}, // path and stat buffer: both pointers
	"close":        {false, false},
	"epoll_create": {false, false},
	"socket":       {false, false},
	"random":       {false, false},
	"time":         {false, false},
	"free":         {false, false},
	"strlen":       {false, false},
	"atoi":         {false, false},
	"localtime_r":  {false, false},
	"read":         {true, false, true},
	"recv":         {true, false, true},
	"write":        {true, false, true},
	"send":         {true, false, true},
	"writev":       {true, false, true},
	"fstat":        {true, false},
	"gettimeofday": {false, true},
	"sendfile":     {true, true, false, true},
	"bind":         {true, true},
	"listen":       {true, true},
	"connect":      {true, true},
	"shutdown":     {true, true},
	"setsockopt":   {true, true, true},
	"getsockopt":   {true, true, false},
	"ioctl":        {true, true, false},
	"epoll_ctl":    {true, true, true, false},
	"epoll_wait":   {true, false, true, true},
	"epoll_pwait":  {true, false, true, true, true},
	"malloc":       {true},
	"calloc":       {true, true},
	"realloc":      {false, true},
	"memcpy":       {false, false, true},
	"memset":       {false, false, true},
	"strcmp":       {false, false},
	"strncmp":      {false, false, true},
	"snprintf":     {false, true, false},
}

func cyclesOf(n int) clock.Cycles {
	if n < 0 {
		return 0
	}
	return clock.Cycles(n)
}

func fromLE(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func toLE(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func argAt(a []uint64, i int) uint64 {
	if i >= 0 && i < len(a) {
		return a[i]
	}
	return 0
}
