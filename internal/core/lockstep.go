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
//
// Each follower slot owns one record, reused for every rendezvous: the
// follower fills it and publishes it on req, the leader reads it only
// until it replies on resp (a channel made with the session), and the
// follower writes it again only after the reply.
type callRecord struct {
	name   string
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
//
// The monitor keeps each slot from region to region (see takeSlots): its
// lanes, call record, decode buffers, ring records and launch closure are
// built once, and a clean region's exit leaves them for the next region,
// which resets only the per-region state. A region that severs any slot
// has them all rebuilt.
type followerSlot struct {
	id    VariantID // 1-based slot index; window sits at id*Delta
	delta int64     // this slot's address-window shift

	tid    int
	thread *kernel.Thread

	req  chan *callRecord   // rendezvous lane: strict calls and pipelined barriers
	ring chan *leaderRecord // pipelined run-ahead lane (nil in strict sessions)
	free chan *leaderRecord // drained ring records going back to the leader (nil in strict sessions)

	// call is the slot's one rendezvous record (see callRecord) and
	// wireBuf the backing array of its wire. ballot is the leader's decode
	// buffer for that wire: only the leader goroutine touches it.
	call    callRecord
	wireBuf [64]byte
	ballot  [8]uint64

	// drainArgs and drainBufs are the follower's decode buffers for the
	// ring records it drains: only the slot's goroutine touches them.
	drainArgs [8]uint64
	drainBufs [1]emuBuf

	// drained counts records this slot has verified; fCycles is the slot
	// thread's cycle total at its previous rendezvous. Both are touched
	// only by the slot's own goroutine (or by the leader while the slot is
	// parked on a rendezvous reply).
	drained uint64
	fCycles clock.Cycles

	// The region's launch: sess and args (the protected function's
	// arguments rebased into the slot's window) are set by the leader
	// before it clones the slot's thread, which runs launch, bound once.
	// ft is the follower's machine thread, kept after it exits so that the
	// next region's follower takes its buffers.
	sess   *session
	args   []uint64
	launch func() error
	ft     *machine.Thread

	deadOnce sync.Once
	dead     chan struct{}
	err      error

	detachOnce sync.Once
	detachCh   chan struct{}
}

// newSlot builds follower slot id, taking over the ring records on the
// free lane of old, the slot it replaces (nil for none): a record there is
// past its follower's last read. One that old's follower still holds, or
// one stranded on old's ring, is left behind.
func (mo *Monitor) newSlot(id VariantID, old *followerSlot) *followerSlot {
	sl := &followerSlot{
		id:       id,
		delta:    mo.opts.Delta * int64(id),
		req:      make(chan *callRecord),
		call:     callRecord{resp: make(chan callResult, 1)},
		dead:     make(chan struct{}),
		detachCh: make(chan struct{}),
	}
	sl.call.wire = sl.wireBuf[:0]
	sl.launch = sl.runFollower
	if mo.opts.Lockstep == LockstepPipelined {
		// Up to LagWindow records sit in the ring, the follower holds the
		// one it drains and the leader the one it fills, so free never
		// holds more than LagWindow+2 and a return never blocks.
		sl.ring = make(chan *leaderRecord, mo.opts.LagWindow)
		sl.free = make(chan *leaderRecord, mo.opts.LagWindow+2)
	drain:
		for old != nil {
			select {
			case rec := <-old.free:
				sl.free <- rec
			default:
				break drain
			}
		}
	}
	return sl
}

// reset readies a slot its previous region left clean for the next one.
// That region's follower has exited, so nothing else reads the slot; the
// records a follower that left early stranded on its ring go back on the
// free lane.
func (sl *followerSlot) reset() {
	sl.tid, sl.thread = 0, nil
	sl.drained, sl.fCycles = 0, 0
	sl.deadOnce = sync.Once{}
	sl.dead = make(chan struct{})
	sl.err = nil
	for {
		select {
		case rec := <-sl.ring:
			sl.recycle(rec)
		default:
			return
		}
	}
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
// ring with its mutexes and condition variables (Section 3.2). A session
// is built per region; an orphaned follower of a severed slot may still
// read its session after the region ends.
type session struct {
	mon *Monitor
	fn  string

	leaderTID int
	slots     []*followerSlot
	slotArr   [MaxVariants - 1]*followerSlot // backs slots

	leaderDone chan struct{}

	// Pipelined lockstep state (see pipeline.go): each slot's ring is the
	// bounded run-ahead queue of leader call records; the lag window is
	// bounded by the slowest slot's cursor (a full ring blocks the leader).
	pipelined bool

	// Containment state (see policy.go): timedOut is closed when a
	// rendezvous deadline blows. waitingSince is the leader's current
	// rendezvous wait start (cycles+1; 0 = not waiting), polled by the
	// monitor's watchdog.
	timeoutOnce  sync.Once
	timedOut     chan struct{}
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

// newSession opens a region with no follower slots seated yet.
func newSession(mon *Monitor, fn string, leaderTID int) *session {
	return &session{
		mon:        mon,
		fn:         fn,
		leaderTID:  leaderTID,
		leaderDone: make(chan struct{}),
		timedOut:   make(chan struct{}),
		pipelined:  mon.opts.Lockstep == LockstepPipelined,
		lr:         mon.led.Region(fn),
	}
}

// takeSlots seats the monitor's follower slots in s. They are reset when
// the previous region left every slot attached, and rebuilt when it
// severed any: a severed slot's orphaned follower may still run, and it
// reads the whole set through its own session. Call with mo.mu held.
func (s *session) takeSlots() {
	mo := s.mon
	rebuild := false
	for _, sl := range mo.slots {
		rebuild = rebuild || sl == nil || sl.detached()
	}
	s.slots = s.slotArr[:len(mo.slots)]
	for i, sl := range mo.slots {
		if rebuild {
			sl = mo.newSlot(VariantID(i+1), sl)
			mo.slots[i] = sl
		} else {
			sl.reset()
		}
		sl.sess = s
		s.slots[i] = sl
	}
}

// staging returns the leader's staging buffer for captureOutputs' buffer
// views resized to n bytes. The monitor keeps it between regions; only
// the leader goroutine touches it: a strict rendezvous writes the views
// into a follower before the next capture, and a pipelined publish frames
// them into its ring record.
func (s *session) staging(n int) []byte {
	mo := s.mon
	if cap(mo.stage) < n {
		mo.stage = make([]byte, n)
	}
	return mo.stage[:n]
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

// slotOf returns the follower slot whose thread t is (nil for the leader
// or an unrelated thread). A follower thread carries its slot's id as its
// variant, so no other thread reads a slot here.
func (s *session) slotOf(t *machine.Thread) *followerSlot {
	if v := t.Variant(); v > 0 && v <= len(s.slots) {
		if sl := s.slots[v-1]; sl.tid == t.TID() {
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

// Watchdog tuning: the poll interval, and how many consecutive polls with a
// frozen virtual clock (leader waiting, no cycles charged anywhere) trip
// the deadline early.
const (
	watchdogPoll        = 2 * time.Millisecond
	watchdogFrozenPolls = 250
)

// watchdog is the monitor's rendezvous deadline watchdog: one real-time
// timer, armed for a session at mvx_start and stopped at mvx_end, whose
// every poll trips the session's timeout when the leader has waited past
// the virtual-cycle deadline, or — the frozen-clock breaker — when the
// leader is waiting and virtual time has stopped advancing entirely (a
// follower hung off-CPU charges no cycles, so a purely virtual deadline
// would never fire). Stalls that do charge cycles are caught
// deterministically from the arrived record's lag in rendezvous; the
// watchdog covers followers that never arrive at all. It stops polling a
// session once it trips or every slot has died.
type watchdog struct {
	mu    sync.Mutex
	timer *time.Timer
	s     *session // the armed session; nil while stopped

	deadline  clock.Cycles
	frozenFor int
	lastWait  int64
	lastNow   clock.Cycles
}

// arm starts polling s against deadline.
func (w *watchdog) arm(s *session, deadline clock.Cycles) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.s, w.deadline = s, deadline
	w.frozenFor, w.lastWait, w.lastNow = 0, 0, 0
	if w.timer == nil {
		w.timer = time.AfterFunc(watchdogPoll, w.poll)
		return
	}
	w.timer.Reset(watchdogPoll)
}

// disarm stops polling s at its region exit. Once it returns, no poll
// reads s.
func (w *watchdog) disarm(s *session) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.s == s {
		w.s = nil
		w.timer.Stop()
	}
}

// poll runs on the timer's goroutine.
func (w *watchdog) poll() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.s == nil {
		return
	}
	if w.check(w.s) {
		w.timer.Reset(watchdogPoll)
		return
	}
	w.s = nil
}

// check is one poll of s; it reports whether to keep polling.
func (w *watchdog) check(s *session) bool {
	if s.allSlotsDead() {
		return false
	}
	wait := s.waitingSince.Load()
	now := s.mon.m.Counter().Cycles()
	if wait == 0 {
		w.frozenFor, w.lastWait = 0, 0
		return true
	}
	if now-clock.Cycles(wait-1) >= w.deadline {
		s.tripTimeout()
		return false
	}
	if wait == w.lastWait && now == w.lastNow {
		w.frozenFor++
		if w.frozenFor >= watchdogFrozenPolls {
			s.tripTimeout()
			return false
		}
	} else {
		w.frozenFor = 0
	}
	w.lastWait, w.lastNow = wait, now
	return true
}

// leaderCall runs the leader's side of one lockstep libc call: a full
// rendezvous with every attached follower slot. Pipelined sessions branch
// into the run-ahead engine (pipeline.go).
func (s *session) leaderCall(t *machine.Thread, f *libc.Func, args []uint64) uint64 {
	if s.pipelined {
		return s.leaderCallPipelined(t, f, args)
	}
	idx := s.calls.Add(1)
	var buf [MaxVariants - 1]*followerSlot
	att := s.attached(buf[:0])
	if len(att) == 0 {
		// Degraded single-variant mode after a policy detach: no
		// rendezvous to charge or wait for. Under rollback the detach means
		// a follower faulted — unwind instead of running un-replicated.
		s.maybeAbortRegion(t, f, idx)
		return s.mon.lib.CallFunc(t, f, args)
	}
	return s.rendezvous(t, f, args, idx, att, false)
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
func (s *session) rendezvous(t *machine.Thread, f *libc.Func, args []uint64, idx uint64, slots []*followerSlot, barrier bool) uint64 {
	per := s.mon.m.Costs().LockstepRendezvous
	if s.mon.opts.SyscallGranularity && f.CPMon {
		per = s.mon.m.Costs().PtraceStop
	}
	entry := per * clock.Cycles(len(slots))
	s.mon.m.ChargeThread(t, entry)
	obsRec := s.mon.rec
	waitStart := s.mon.m.Counter().Cycles()
	phase := ledger.PhaseRendezvous
	if barrier {
		if obsRec != nil {
			s.mon.cells.barrier.Inc()
		}
		phase = ledger.PhaseBarrier
		slots, _, _ = s.publish(t, f, args, idx, slots, 0, 0)
	}
	s.waitingSince.Store(int64(waitStart) + 1)
	arr := s.collect(t, slots, f.Name, idx, s.arrivals[:0])
	s.waitingSince.Store(0)
	// The span opens once every slot is parked (arrived, dead or timed out)
	// and resolve closes it before it releases a winner, so no follower
	// that votes with the leader charges the shared counter inside it: its
	// duration does not depend on how the host scheduled the variants. The
	// wait before it is the leader histogram's and the ledger's.
	var span obs.RendezvousSpan
	if obsRec != nil {
		span = obsRec.BeginRendezvousSpan(obs.VariantLeader, t.TID(), f.Spans.Rendezvous, uint64(f.Cat))
	}
	if len(arr) == 0 {
		s.maybeAbortRegion(t, f, idx)
		ret := s.mon.lib.CallFunc(t, f, args)
		span.End(ret)
		return ret
	}
	wait := s.mon.m.Counter().Cycles() - waitStart
	t.AddWaitCycles(wait)
	if obsRec != nil {
		s.mon.cells.wait.Observe(uint64(wait))
		s.mon.cells.leader.Observe(uint64(entry + wait))
		obsRec.ObserveSeries(obs.SeriesRendezvous, uint64(entry+wait))
	}
	if lr := s.lr; lr != nil {
		// The two charges sum to exactly what the rendezvous.leader.cycles
		// histogram observed above — the ledger/histogram reconciliation
		// invariant. A barrier's wait started before its ring appends, so
		// it folds in any backpressure the barrier record hit.
		cls := ledger.Class(f.Sync)
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
				s.rendezvousTimeout(t, a.slot, a.rec, f.Name, idx)
				continue
			}
			kept = append(kept, a)
		}
		arr = kept
	}
	return s.resolve(t, f, args, arr, idx, span)
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
// span is the rendezvous's span, ended with the leader's return value
// before any winner is released.
func (s *session) resolve(t *machine.Thread, f *libc.Func, args []uint64, arr []slotArrival, idx uint64, span obs.RendezvousSpan) uint64 {
	name := f.Name
	if len(arr) > 0 && s.mon.snapshotDue(s) {
		// A quiescent anchor point: every arrived variant is parked at the
		// same ordinal (in pipelined mode this is a barrier, so the rings are
		// drained) and no emulation is in flight. The checkpoint lands
		// before this call's divergence checks — a rendezvous that fails
		// them below was still quiescent when captured, and the budget
		// catches a checkpoint that keeps absorbing the same divergence.
		s.mon.captureCheckpoint(s, t, ledger.Class(f.Sync), idx)
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
		fname, fargs, err := decodeCallRecord(a.rec.wire, name, a.slot.ballot[:0])
		wireBytes += uint64(len(a.rec.wire))
		ballots = append(ballots, Ballot{Variant: a.slot.id, Name: fname, Args: fargs, Valid: err == nil})
		if err == nil {
			valid++
			continue
		}
		s.mon.raiseAlarm(Alarm{
			Reason: AlarmCallMismatch, CallIndex: idx, Function: s.fn,
			LeaderCall: name, Variant: a.slot.id,
			Detail: fmt.Sprintf("corrupt IPC call record: %v", err),
		}, s.rendezvousSnapshots(t, a.rec)...)
		s.diverged.Store(true)
		s.rejectFollower(a.slot, a.rec, "ipc-corruption")
	}
	res := vote(f, ballots)
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
		s.maybeAbortRegion(t, f, idx)
		ret := s.mon.lib.CallFunc(t, f, args)
		span.End(ret)
		return ret
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
			v := compareCalls(f, name, args, b.Name, b.Args)
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
		alarm.Variant = a.slot.id
		s.mon.raiseAlarm(alarm, s.rendezvousSnapshots(t, a.rec)...)
		s.diverged.Store(true)
		s.rejectFollower(a.slot, a.rec, cause)
	}
	if len(winners) == 0 {
		ret := s.mon.lib.CallFunc(t, f, args)
		span.End(ret)
		return ret
	}

	if obsRec != nil {
		obsRec.Record(obs.EvLockstep, obs.VariantLeader, t.TID(), name, uint64(f.Cat), idx, 0)
		obsRec.LockstepCategoryCounter(uint64(f.Cat)).Inc()
	}
	if lr := s.lr; lr != nil {
		// Decode+compare charges no virtual cycles (the cost model folds it
		// into the rendezvous entry); the ledger still counts occurrences,
		// allocations, and the wire volume verified.
		lr.Add(ledger.PhaseCompare, obs.VariantLeader, ledger.Class(f.Sync),
			0, cmpMark, wireBytes)
	}
	ret := s.mon.lib.CallFunc(t, f, args)
	if f.Cat == libc.CatLocal {
		// User-space call: each variant executes in its own space.
		span.End(ret)
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
		esp = obsRec.BeginEmulationSpan(obs.VariantLeader, t.TID(), f.Spans.Emulation, uint64(f.Cat))
	}
	emuMark := s.lr.Mark()
	total := 0
	var faulted uint16
	for i, w := range winners {
		// The copy runs on the leader's side of the rendezvous, so it names
		// no thread: its per-byte charge reaches no variant's own clock
		// (ROADMAP item 1).
		var out [1]emuBuf
		bufs := s.captureOutputs(out[:0], f, args, ret, w.slot.delta)
		copied, efault := s.applyResult(nil, w.slot, f, idx, args, w.args, bufs)
		total += copied
		if efault {
			faulted |= 1 << i
		}
	}
	esp.End(uint64(total))
	if lr := s.lr; lr != nil {
		lr.Add(ledger.PhaseEmulate, obs.VariantLeader, ledger.Class(f.Sync),
			s.mon.m.Costs().LockstepCopyPerByte*cyclesOf(total), emuMark, uint64(total))
	}
	s.emulatedBytes.Add(uint64(total))
	if obsRec != nil {
		obsRec.Record(obs.EvEmulated, obs.VariantLeader, t.TID(), name, uint64(total), 0, ret)
		s.mon.cells.emulated.Add(uint64(total))
	}
	span.End(ret)
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
		LeaderCall: name, Variant: sl.id,
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
func (s *session) followerCall(t *machine.Thread, sl *followerSlot, f *libc.Func, args []uint64) uint64 {
	if s.pipelined {
		return s.followerCallPipelined(t, sl, f, args)
	}
	return s.followerRendezvous(t, sl, f, args, sl.lag(t))
}

// followerRendezvous runs one follower slot's side of a full rendezvous —
// every strict call, and every pipelined barrier once the ring before it
// has drained: publish the call on the slot's rendezvous lane, wait for
// the leader's verdict, and apply it. lag is the slot's own cycles since
// its previous rendezvous.
func (s *session) followerRendezvous(t *machine.Thread, sl *followerSlot, f *libc.Func, args []uint64, lag clock.Cycles) uint64 {
	fv, name := sl.id, f.Name
	mshMark := s.lr.Mark()
	rec := &sl.call
	rec.name, rec.thread, rec.lag = name, t, lag
	rec.wire = appendCallRecord(rec.wire[:0], name, args)
	lr := s.lr
	var cls ledger.Class
	var fwaitStart clock.Cycles
	if lr != nil {
		cls = ledger.Class(f.Sync)
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
		// lib.CallFunc marks the follower's call itself.
		return s.mon.lib.CallFunc(t, f, args)
	}
	// The follower never reaches libc for this call: the call began at the
	// rendezvous arrival, and ends when the pass returns with the emulated
	// result.
	if obsRec != nil {
		t.LibcCall().Enter = arriveTS
	}
	switch res.mode {
	case modeEmulated:
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
		FollowerCall: name, Variant: sl.id,
		Detail: fmt.Sprintf("follower issued %s after leader finished the region", name),
	}, s.followerSnapshots(t)...)
	s.diverged.Store(true)
	panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDivergence})
}

// captureOutputs appends to dst a view of the output buffer the leader's
// call wrote, read into the leader's staging buffer as the call's row
// describes it (f.Out). delta is the target slot's window shift: epoll_data
// entries that point into the leader's space are rebased into that slot's
// window here, while the leader's heap watermark still reflects the moment
// of the call. The view lasts until the next capture: a strict rendezvous
// applies it to its slot at once, and a pipelined publish frames it into
// the slot's ring record, so the leader overwriting the buffer while it
// runs ahead cannot corrupt a follower's copy.
func (s *session) captureOutputs(dst []emuBuf, f *libc.Func, args []uint64, ret uint64, delta int64) []emuBuf {
	out := f.Out
	src := mem.Addr(argAt(args, out.Arg))
	if out.Size == 0 || src == 0 || (out.Kind == libc.OutLeaderPtr && !s.inLeaderSpace(src)) {
		return dst
	}
	n := out.Size
	if out.Kind == libc.OutRet || out.Kind == libc.OutEvents {
		n *= max(int(int64(ret)), 0)
	}
	if n == 0 {
		return dst
	}
	as := s.mon.m.AddressSpace()
	buf := s.staging(n)
	if out.Kind == libc.OutEvents {
		// One load per event: the capture ends at the first event it
		// cannot read. An event's epoll_data follows its 8 bytes of events.
		for i := 0; i < n; i += out.Size {
			ev := buf[i : i+out.Size]
			if err := as.ReadAt(src+mem.Addr(i), ev); err != nil {
				buf = buf[:i]
				break
			}
			if d := fromLE(ev[8:]); s.inLeaderSpace(mem.Addr(d)) {
				toLE(ev[8:], uint64(int64(d)+delta))
			}
		}
	} else if err := as.ReadAt(src, buf); err != nil {
		buf = nil
	}
	if len(buf) == 0 {
		return dst
	}
	return append(dst, emuBuf{argIdx: out.Arg, data: buf})
}

// applyResult writes the leader's buffer views into slot sl's own argument
// buffers and returns the bytes copied and whether a follower buffer was
// unwritable (AlarmEmulationFault raised). The copy runs with monitor
// privileges (raw address-space access: the monitor's PKRU has every key
// enabled). t is charged the per-byte copy: the pipelined follower that
// drained the record, off the leader's critical path, or nil inside a
// strict rendezvous.
func (s *session) applyResult(t *machine.Thread, sl *followerSlot, f *libc.Func, idx uint64, largs, fargs []uint64, bufs []emuBuf) (int, bool) {
	as := s.mon.m.AddressSpace()
	costs := s.mon.m.Costs()
	copied := 0
	faulted := false
	for _, b := range bufs {
		dst := mem.Addr(argAt(fargs, b.argIdx))
		src := mem.Addr(argAt(largs, b.argIdx))
		if dst == 0 || len(b.data) == 0 {
			continue
		}
		if err := as.WriteAt(dst, b.data); err != nil {
			// The follower's destination buffer is unmapped or unwritable:
			// a corrupted follower. Attribute it precisely so replay
			// diffing can tell it apart from the generic divergence the
			// stale data would cause later.
			s.mon.raiseAlarm(Alarm{
				Reason: AlarmEmulationFault, CallIndex: idx, Function: s.fn,
				LeaderCall: f.Name, Variant: sl.id,
				Detail: fmt.Sprintf("emulation copy of %d bytes into follower buffer %v failed: %v",
					len(b.data), dst, err),
			})
			s.diverged.Store(true)
			faulted = true
			continue
		}
		_ = as.CopyTaint(dst, src, len(b.data))
		s.mon.m.ChargeThread(t, costs.LockstepCopyPerByte*cyclesOf(len(b.data)))
		copied += len(b.data)
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

// scalarMismatch compares the scalar arguments of a call to f between
// variants, returning the first differing pair.
func scalarMismatch(f *libc.Func, leader, follower []uint64) (bad bool, l, fv uint64) {
	if len(leader) != len(follower) {
		return true, uint64(len(leader)), uint64(len(follower))
	}
	for i := range leader {
		if f.Scalar(i) && leader[i] != follower[i] {
			return true, leader[i], follower[i]
		}
	}
	return false, 0, 0
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
