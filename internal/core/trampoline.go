package core

import (
	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// ledgerTrampoline charges one interception's fixed entry cost (WRPKRU
// dance plus the optional stack pivot) to the cost ledger.
func (s *session) ledgerTrampoline(v obs.Variant, f *libc.Func, costs clock.CostTable, pivoted bool) {
	lr := s.lr
	if lr == nil {
		return
	}
	c := costs.TrampolineEntry
	if pivoted {
		c += costs.StackPivot
	}
	lr.Add(ledger.PhaseTrampoline, v, ledger.Class(f.Sync), c, ledger.Mark{}, 0)
}

// Intercept implements machine.Interposer: the MPK trampoline of Figure 4.
//
// Every patched PLT call lands here. The trampoline (1) disables MPK
// protection for the monitor's pages (WRPKRU), (2) pivots from the unsafe
// application stack to the thread's TLS safe stack so untrusted code cannot
// attack the monitor's frames, (3) runs the reference-monitor logic —
// passthrough outside a protected region, lockstep inside one — and
// (4) restores the stack and re-arms MPK on the way out. The two WRPKRU
// executions and the fixed pivot cost are charged per interception, which
// is what makes sMVX's per-libc-call overhead visible in Figure 7. The
// call's row is Setup's row for the slot, and it rides the whole call
// path; the monitor's state is read in one lock section. The pass and its
// libc call are recorded once, as one EvLibcCall on the way out, whether
// the pass returns or unwinds.
func (mo *Monitor) Intercept(t *machine.Thread, slot int, name string, args []uint64) uint64 {
	f := mo.rows.Row(slot, name)
	if mo.opts.SyscallGranularity && f.UserSpace {
		return mo.lib.CallFunc(t, f, args)
	}
	costs := mo.m.Costs()
	mo.m.ChargeThread(t, costs.TrampolineEntry)

	// DEACTIVATE_MPK_PROT(): open the monitor's pages for this thread.
	oldPKRU, monPKRU := t.PKRU(), mo.monPKRU()
	t.WRPKRU(monPKRU)

	// Switch stacks: the reference monitor and the actual libc call run on
	// the MPK-protected safe stack. A quarantined thread has none.
	pivoted := !mo.opts.DisableSafeStack
	if pivoted {
		mo.m.ChargeThread(t, costs.StackPivot)
	}
	s, quarantined, safeTop := mo.trampolineState(t, pivoted)
	var oldSP, safeSP mem.Addr
	if safeTop != 0 {
		oldSP, safeSP = t.SP(), safeTop
		t.SetSP(safeSP)
	}
	v := obs.Variant(t.Variant())
	var ret uint64
	returned := false
	rec := mo.rec
	var e obs.Event
	if rec != nil {
		// Set field by field: the deferred exit shares e, and a composite
		// literal would be built aside and copied in.
		e.Kind, e.Variant, e.Flags, e.TID = obs.EvLibcCall, v, obs.FlagIntercepted, t.TID()
		e.Fn, e.Name, e.Arg0, e.Arg1 = t.Fn(), name, argAt(args, 0), argAt(args, 1)
		e.PKRU, e.SP, e.SafeSP = uint64(oldPKRU)|uint64(monPKRU)<<32, uint64(oldSP), uint64(safeSP)
		*t.LibcCall() = machine.LibcCall{Open: true, Enter: rec.Now()}
	}
	defer func() {
		// On the way out — including a simulated crash unwinding through
		// here — restore the unsafe stack and ACTIVATE_MPK_PROT().
		if safeSP != 0 {
			t.SetSP(oldSP)
		}
		t.WRPKRU(oldPKRU)
		if rec != nil {
			// The call ends where libc returned or, for a call whose result
			// the monitor emulated and for a pass that unwinds, here.
			lc := t.LibcCall()
			lc.Open = false
			e.TS = lc.Enter
			exit := lc.Exit
			if !returned || !lc.Exited {
				exit = rec.Now()
			}
			if returned {
				e.Ret = ret
			} else {
				e.Flags |= obs.FlagUnreturned
			}
			if exit > e.TS {
				e.Dur = exit - e.TS
			}
			rec.RecordEvent(&e)
		}
	}()

	if quarantined {
		// A detached follower (possibly resuming after a stall, possibly
		// orphaned past its region) may not reach the kernel unreplicated:
		// wind it down here.
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDetached})
	}
	ret = mo.reference(t, s, v, f, args, costs, pivoted)
	returned = true
	return ret
}

// reference runs the reference monitor on one intercepted call:
// passthrough outside a protected region or for a thread outside the
// region's variant set, lockstep for the leader and each follower.
func (mo *Monitor) reference(t *machine.Thread, s *session, v obs.Variant, f *libc.Func, args []uint64, costs clock.CostTable, pivoted bool) uint64 {
	if s == nil {
		// Outside any protected region: plain interception, direct libc.
		return mo.lib.CallFunc(t, f, args)
	}
	if t.TID() == s.leaderTID {
		s.ledgerTrampoline(v, f, costs, pivoted)
		return s.leaderCall(t, f, args)
	}
	if sl := s.slotOf(t); sl != nil {
		s.ledgerTrampoline(v, f, costs, pivoted)
		return s.followerCall(t, sl, f, args)
	}
	// Unrelated thread (e.g. another worker): passthrough.
	return mo.lib.CallFunc(t, f, args)
}
