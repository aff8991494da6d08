package core

// Pipelined lockstep: the bounded run-ahead rendezvous ring.
//
// Strict lockstep (lockstep.go) stops the leader at every libc call until
// the followers arrive — rendezvous RTT dominates protected-region
// overhead. In pipelined mode the roles invert: the leader executes its
// call, publishes a framed record (the canonical-varint IPC codec plus a
// result snapshot) on each follower slot's bounded ring, and keeps running
// up to LagWindow unverified calls ahead; every follower drains its own
// ring asynchronously and performs the exact same decode-before-compare
// divergence checks at drain time, attributing any alarm to the ordinal
// the leader stamped on the record. The three emulation categories become
// sync classes (each call row's Sync): results-emulation calls pipeline
// freely, local calls pipeline with no result payload, and state-changing
// or externally-visible calls are hard barriers — the leader drains every
// ring and completes the strict rendezvous, the same vote for any number
// of live slots, before the call's effects leave the process.

import (
	"fmt"
	"time"

	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
)

// LockstepMode selects the rendezvous discipline for protected regions.
type LockstepMode int

const (
	// LockstepStrict is the paper's stop-and-wait lockstep: the leader
	// blocks at every libc call until the followers catch up.
	LockstepStrict LockstepMode = iota
	// LockstepPipelined decouples the variants over the bounded
	// rendezvous rings with drain-time verification and category-aware
	// sync barriers.
	LockstepPipelined
)

// String names the mode as accepted by ParseLockstepMode.
func (m LockstepMode) String() string {
	switch m {
	case LockstepStrict:
		return "strict"
	case LockstepPipelined:
		return "pipelined"
	default:
		return fmt.Sprintf("lockstep(%d)", int(m))
	}
}

// ParseLockstepMode maps a -lockstep flag value to a mode. The empty
// string selects strict, the paper's default.
func ParseLockstepMode(s string) (LockstepMode, error) {
	switch s {
	case "", "strict":
		return LockstepStrict, nil
	case "pipelined":
		return LockstepPipelined, nil
	default:
		return 0, fmt.Errorf("unknown lockstep mode %q (strict, pipelined)", s)
	}
}

// DefaultLagWindow bounds the pipelined leader's run-ahead when no
// WithLagWindow option is given.
const DefaultLagWindow = 16

// pipelineGrace is the real-time window the leader grants a tripped
// watchdog before concluding a follower is wedged off-CPU: a stalled
// but still-charging follower detects its own blown deadline at drain
// time (with the precise originating ordinal) well inside this window,
// so only a follower that charges nothing at all reaches the leader-side
// timeout path.
const pipelineGrace = 200 * time.Millisecond

// leaderRecord is one entry on a pipelined rendezvous ring: the
// leader's half of a libc call, published ahead of verification. wire is
// the canonical-varint call record (name + args); result — present for
// pipelined-class calls — frames the return value, errno, and output
// buffer snapshots captured at call time. The follower decodes both
// rather than trusting in-process fields; fn, the leader's call row, only
// tells the drain how to handle the record. A barrier record carries no
// result: the follower hands its own callRecord over the slot's
// rendezvous lane and the set completes a full rendezvous.
//
// Records are recycled per slot: after its last read of a record, idx
// included, the follower sends it back on the slot's free lane, and the
// leader refills it, wire and result buffers included, for a later call.
type leaderRecord struct {
	idx    uint64 // 1-based libc-call ordinal, stamped by the leader
	wire   []byte
	fn     *libc.Func
	result []byte
}

// emuBuf is one output-buffer snapshot inside a result record: the bytes
// the leader's call wrote through its argIdx-th pointer argument.
type emuBuf struct {
	argIdx int
	data   []byte
}

// appendRecord outcomes.
type appendVerdict int

const (
	appendOK appendVerdict = iota
	appendDead
	appendDetached
	appendTimedOut
)

// leaderCallPipelined runs the leader's side of one pipelined libc call:
// classify, execute, publish on every live slot's ring (blocking only when
// a lag window is exhausted), and barrier where the effects become
// externally visible.
func (s *session) leaderCallPipelined(t *machine.Thread, f *libc.Func, args []uint64) uint64 {
	idx := s.calls.Add(1)
	var buf [MaxVariants - 1]*followerSlot
	att := s.attached(buf[:0])
	live := att[:0]
	for _, sl := range att {
		select {
		case <-sl.dead:
			// A follower died mid-region; the variant waiter raises the alarm.
			s.diverged.Store(true)
		default:
			live = append(live, sl)
		}
	}
	if len(live) == 0 {
		// Degraded single-variant mode after a policy detach, or every
		// follower died. Under rollback the region is unwound here (the
		// leader's remaining control flow is suspect); otherwise the leader
		// continues un-replicated (as in strict mode).
		s.maybeAbortRegion(t, f, idx)
		return s.mon.lib.CallFunc(t, f, args)
	}
	if f.Sync == libc.SyncBarrier {
		return s.rendezvous(t, f, args, idx, live, true)
	}
	return s.enqueue(t, f, args, idx, live)
}

// enqueue runs one non-barrier pipelined call: execute it once, then
// publish a record on every live slot's ring. When no slot accepted the
// record (each died or severed itself at drain time, the alarms raised on
// its goroutine) rollback unwinds here.
func (s *session) enqueue(t *machine.Thread, f *libc.Func, args []uint64, idx uint64, live []*followerSlot) uint64 {
	entry := s.mon.m.Costs().LockstepEnqueue * clock.Cycles(len(live))
	s.mon.m.ChargeThread(t, entry)
	// Execute before publishing: the records carry the concrete result
	// (and output-buffer snapshots) the followers will verify and apply.
	// Snapshots are taken now, so the leader overwriting the buffer while
	// running ahead cannot corrupt a follower's copy.
	ret := s.mon.lib.CallFunc(t, f, args)
	accepted, depth, wait := s.publish(t, f, args, idx, live, ret, t.Errno())
	if len(accepted) == 0 {
		s.maybeAbortRegion(t, f, idx)
		return ret
	}
	if obsRec := s.mon.rec; obsRec != nil {
		s.mon.cells.leader.Observe(uint64(entry + wait))
		s.mon.cells.depth.Set(float64(depth))
		obsRec.ObserveSeries(obs.SeriesRendezvous, uint64(entry+wait))
		obsRec.ObserveSeries(obs.SeriesPipelineDepth, uint64(depth))
	}
	if lr := s.lr; lr != nil {
		// Enqueue+wait sum to the rendezvous.leader.cycles observation
		// above — the ledger/histogram reconciliation invariant.
		cls := ledger.Class(f.Sync)
		lr.Add(ledger.PhaseEnqueue, obs.VariantLeader, cls, entry, ledger.Mark{}, 0)
		lr.Add(ledger.PhaseWait, obs.VariantLeader, cls, wait, ledger.Mark{}, 0)
	}
	return ret
}

// publish puts call idx's record on each slot's ring: a barrier record, or
// the executed call's result (ret, errno, and output snapshots rebased
// into that slot's window). It returns, filtered in place, the slots that
// accepted the record, the deepest ring among them, and the cycles the
// leader spent blocked on full rings. A slot that stopped draining inside
// the deadline is timed out.
func (s *session) publish(t *machine.Thread, f *libc.Func, args []uint64, idx uint64, slots []*followerSlot, ret uint64, errno kernel.Errno) ([]*followerSlot, int, clock.Cycles) {
	accepted, depth := slots[:0], 0
	var wait clock.Cycles
	for _, sl := range slots {
		mshMark := s.lr.Mark()
		var rec *leaderRecord
		select {
		case rec = <-sl.free:
		default:
			rec = new(leaderRecord)
		}
		rec.idx, rec.fn = idx, f
		rec.wire = appendCallRecord(rec.wire[:0], f.Name, args)
		rec.result = rec.result[:0]
		if f.Sync == libc.SyncPipelined {
			var out [1]emuBuf
			rec.result = appendResultRecord(rec.result, ret, errno,
				s.captureOutputs(out[:0], f, args, ret, sl.delta))
		}
		if lr := s.lr; lr != nil {
			lr.Add(ledger.PhaseMarshal, obs.VariantLeader, ledger.Class(f.Sync), 0, mshMark,
				uint64(len(rec.wire)+len(rec.result)))
		}
		start := s.mon.m.Counter().Cycles()
		switch s.appendRecord(t, sl, rec) {
		case appendOK:
			wait += s.mon.m.Counter().Cycles() - start
			accepted = append(accepted, sl)
			depth = max(depth, len(sl.ring))
		case appendDead:
			s.diverged.Store(true)
		case appendTimedOut:
			s.rendezvousTimeout(t, sl, nil, f.Name, idx)
		}
	}
	return accepted, depth, wait
}

// appendRecord publishes one record on a slot's ring, blocking when its
// lag window is exhausted — the bounded run-ahead backpressure. The wait
// is parked under waitingSince like a strict rendezvous so the watchdog
// can see it.
func (s *session) appendRecord(t *machine.Thread, sl *followerSlot, rec *leaderRecord) appendVerdict {
	select {
	case <-sl.dead:
		return appendDead
	case <-sl.detachCh:
		return appendDetached
	default:
	}
	select {
	case sl.ring <- rec:
		return appendOK
	default:
	}
	waitStart := s.mon.m.Counter().Cycles()
	s.waitingSince.Store(int64(waitStart) + 1)
	defer s.waitingSince.Store(0)
	unblocked := func() appendVerdict {
		now := s.mon.m.Counter().Cycles()
		t.AddWaitCycles(now - waitStart)
		s.mon.cells.wait.Observe(uint64(now - waitStart))
		return appendOK
	}
	select {
	case sl.ring <- rec:
		return unblocked()
	case <-sl.dead:
		return appendDead
	case <-sl.detachCh:
		return appendDetached
	case <-s.timedOut:
		// Grace: a stalled-but-charging follower raises its own timeout
		// (or frees a slot) within this window; see pipelineGrace.
		select {
		case sl.ring <- rec:
			return unblocked()
		case <-sl.dead:
			return appendDead
		case <-sl.detachCh:
			return appendDetached
		case <-time.After(pipelineGrace):
			return appendTimedOut
		}
	}
}

// followerCallPipelined runs one follower slot's side: drain the next
// leader record from the slot's ring and verify it — the strict
// rendezvous's decode-before-compare checks, moved to drain time and
// attributed to the ordinal the leader stamped on the record.
func (s *session) followerCallPipelined(t *machine.Thread, sl *followerSlot, f *libc.Func, args []uint64) uint64 {
	fv, name := sl.id, f.Name
	costs := s.mon.m.Costs()
	s.mon.m.ChargeThread(t, costs.LockstepEnqueue)
	lag := sl.lag(t)
	// The deterministic deadline verdict lives on the follower in
	// pipelined mode: at every drain it knows its own lag and the exact
	// ordinal of the call that stalled, where the leader — running ahead
	// — could only attribute a timeout to whatever barrier it is parked
	// on.
	if d := s.mon.opts.RendezvousDeadline; d > 0 && lag > d {
		s.followerTimedOut(t, sl, name, sl.drained+1, lag) // never returns
	}
	lr := s.lr
	var cls ledger.Class
	var dqStart clock.Cycles
	if lr != nil {
		cls = ledger.Class(f.Sync)
		lr.Add(ledger.PhaseDrain, fv, cls,
			costs.LockstepEnqueue, ledger.Mark{}, 0)
		dqStart = s.mon.m.Counter().Cycles()
	}
	rec := s.dequeueRecord(t, sl, name) // panics on detach / sequence overrun
	sl.drained++
	if lr != nil {
		lr.Add(ledger.PhaseWait, fv, cls,
			s.mon.m.Counter().Cycles()-dqStart, ledger.Mark{}, 0)
	}

	obsRec := s.mon.rec
	var arriveTS clock.Cycles
	var dspan obs.DrainSpan
	if obsRec != nil {
		arriveTS = s.mon.m.Counter().Cycles()
		dspan = obsRec.BeginDrainSpan(fv, t.TID(), f.Spans.Drain, uint64(rec.fn.Cat))
	}

	// Drain-time divergence checks: decode what crossed the ring, then
	// the rendezvous compare against the follower's own call.
	cmpMark := s.lr.Mark()
	lname, largs, derr := decodeCallRecord(rec.wire, name, sl.drainArgs[:0])
	if derr != nil {
		s.drainDiverged(t, sl, Alarm{
			Reason: AlarmCallMismatch, CallIndex: rec.idx, Function: s.fn,
			FollowerCall: name,
			Detail:       fmt.Sprintf("corrupt IPC call record: %v", derr),
		}, "ipc-corruption")
	}
	if v := compareCalls(f, lname, largs, name, args); v.reason != 0 {
		s.drainDiverged(t, sl, v.alarm(s.fn, rec.idx, lname, name), v.cause())
	}

	if obsRec != nil {
		obsRec.Record(obs.EvLockstep, fv, t.TID(), name, uint64(rec.fn.Cat), rec.idx, 0)
		obsRec.LockstepCategoryCounter(uint64(rec.fn.Cat)).Inc()
		s.mon.cells.lag.Observe(s.calls.Load() - rec.idx)
		obsRec.ObserveSeries(obs.SeriesLag, s.calls.Load()-rec.idx)
	}
	if lr != nil {
		lr.Add(ledger.PhaseCompare, fv, cls,
			0, cmpMark, uint64(len(rec.wire)))
	}

	switch rec.fn.Sync {
	case libc.SyncBarrier:
		sl.recycle(rec)
		// Everything before the barrier has drained, so the leader's
		// verdict arrives exactly as in strict lockstep.
		ret := s.followerRendezvous(t, sl, f, args, lag)
		dspan.End(ret)
		return ret
	case libc.SyncLocal:
		sl.recycle(rec)
		// User-space call: execute in the follower's own window.
		// lib.CallFunc records the follower's enter/exit events itself.
		ret := s.mon.lib.CallFunc(t, f, args)
		dspan.End(ret)
		return ret
	}

	// Pipelined record: decode and apply the leader's result snapshot. The
	// decoded buffers are views into rec.result, so the record goes back
	// to the leader only once they are applied.
	emuMark := s.lr.Mark()
	ret, errno, bufs, rerr := decodeResultRecord(rec.result, sl.drainBufs[:0])
	if rerr != nil {
		s.drainDiverged(t, sl, Alarm{
			Reason: AlarmCallMismatch, CallIndex: rec.idx, Function: s.fn,
			LeaderCall: lname, FollowerCall: name,
			Detail: fmt.Sprintf("corrupt IPC result record: %v", rerr),
		}, "ipc-corruption")
	}
	copied, faulted := s.applyResult(t, sl, f, rec.idx, largs, args, bufs)
	sl.recycle(rec)
	if lr != nil {
		lr.Add(ledger.PhaseEmulate, fv, cls,
			costs.LockstepCopyPerByte*cyclesOf(copied), emuMark, uint64(copied))
	}
	s.emulatedBytes.Add(uint64(copied))
	if obsRec != nil {
		obsRec.Record(obs.EvEmulated, fv, t.TID(), name, uint64(copied), 0, ret)
		s.mon.cells.emulated.Add(uint64(copied))
		obsRec.RecordInAt(arriveTS, t.Fn(), obs.EvLibcEnter, fv, t.TID(), name,
			argAt(args, 0), argAt(args, 1), 0)
		obsRec.RecordIn(t.Fn(), obs.EvLibcExit, fv, t.TID(), name, 0, 0, ret)
	}
	dspan.End(ret)
	if faulted && s.mon.contain() {
		// The follower's result buffer is gone; it cannot keep up.
		s.mon.detachFollower(s, sl, "emulation-fault")
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDetached})
	}
	t.SetErrno(errno)
	return ret
}

// recycle hands a drained record back to the leader for a later call. The
// free lane has room for every record the slot can hold (see newSlot);
// were it ever full, the record would just be dropped.
func (sl *followerSlot) recycle(rec *leaderRecord) {
	select {
	case sl.free <- rec:
	default:
	}
}

// dequeueRecord takes the next leader record off the slot's ring, blocking
// until the leader publishes one. The ring is checked before (and after)
// the leaderDone signal: all appends happen-before leaderDone closes, and
// select picks ready cases at random, so a tail record must not be
// mistaken for a sequence overrun.
func (s *session) dequeueRecord(t *machine.Thread, sl *followerSlot, name string) *leaderRecord {
	select {
	case rec := <-sl.ring:
		return rec
	default:
	}
	select {
	case rec := <-sl.ring:
		return rec
	case <-sl.detachCh:
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDetached})
	case <-s.leaderDone:
		select {
		case rec := <-sl.ring:
			return rec
		default:
		}
		s.overrun(t, sl, name)
		return nil
	}
}

// drainDiverged raises a drain-time divergence alarm from a follower
// slot's goroutine and severs that slot per the policy. When other slots
// remain live, the slot disagreeing with the leader's record is implicitly
// outvoted (the leader plus the agreeing slots form the majority), so the
// alarm is re-marked AlarmOutvoted; a lone live slot keeps the pairwise
// reason, as a lone ballot does in the vote. Only the follower's own
// thread may be snapshotted here — the leader is running ahead
// concurrently. Never returns.
func (s *session) drainDiverged(t *machine.Thread, sl *followerSlot, a Alarm, cause string) {
	a.Variant = sl.id
	if s.liveAttached() > 1 {
		a.Reason = AlarmOutvoted
	}
	s.mon.raiseAlarm(a, s.followerSnapshots(t)...)
	s.diverged.Store(true)
	if a.Reason == AlarmOutvoted {
		if obsRec := s.mon.rec; obsRec != nil {
			obsRec.Metrics().Inc("vote.follower_outvoted")
		}
	}
	s.mon.severFromFollower(s, sl, t, cause)
}

// followerTimedOut raises the drain-time deadline alarm with the stalled
// call's own ordinal and severs the slot per the policy. Never returns.
func (s *session) followerTimedOut(t *machine.Thread, sl *followerSlot, name string, ordinal uint64, lag clock.Cycles) {
	s.mon.raiseAlarm(Alarm{
		Reason: AlarmRendezvousTimeout, CallIndex: ordinal, Function: s.fn,
		FollowerCall: name, Variant: sl.id,
		Detail: fmt.Sprintf("follower stalled %d cycles against a %d-cycle rendezvous deadline",
			lag, s.mon.opts.RendezvousDeadline),
	}, s.followerSnapshots(t)...)
	s.diverged.Store(true)
	s.mon.rec.Metrics().Inc("rendezvous.timeout")
	s.mon.severFromFollower(s, sl, t, "rendezvous-timeout")
}
