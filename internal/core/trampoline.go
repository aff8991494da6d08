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
// path; the monitor's state is read in one lock section, and the whole
// pass is recorded once, as one EvTrampoline at entry.
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
	// the MPK-protected safe stack.
	pivoted := !mo.opts.DisableSafeStack
	if pivoted {
		mo.m.ChargeThread(t, costs.StackPivot)
	}
	s, quarantined, safeTop := mo.trampolineState(t, pivoted)
	var oldSP, safeSP mem.Addr
	if pivoted {
		oldSP, safeSP = t.SP(), safeTop
		t.SetSP(safeSP)
	}
	v := obs.Variant(t.Variant())
	mo.rec.Record(obs.EvTrampoline, v, t.TID(), name,
		uint64(oldPKRU)|uint64(monPKRU)<<32, uint64(oldSP), uint64(safeSP))
	defer func() {
		// On the way out — including a simulated crash unwinding through
		// here — restore the unsafe stack and ACTIVATE_MPK_PROT().
		if pivoted {
			t.SetSP(oldSP)
		}
		t.WRPKRU(oldPKRU)
	}()

	if quarantined {
		// A detached follower (possibly resuming after a stall, possibly
		// orphaned past its region) may not reach the kernel unreplicated:
		// wind it down here.
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDetached})
	}
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
