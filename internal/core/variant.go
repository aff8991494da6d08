package core

import (
	"errors"
	"fmt"
	"time"

	"smvx/internal/obs"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// clonedSections lists the image sections replicated into each follower
// window (Figure 5: shift and clone).
var clonedSections = []string{
	image.SecText, image.SecRodata, image.SecData, image.SecBSS,
	image.SecPLT, image.SecGotPLT,
}

// slotNames are one follower slot's thread and cloned-region names. They
// appear in Regions(), snapshots and forensics, so they keep their
// formatted forms byte for byte; the monitor builds them once rather than
// on every region.
type slotNames struct {
	thread   string
	sections []string // parallel to clonedSections
	heap     string
}

// newSlotNames builds the names of follower slots 1..n.
func newSlotNames(n int) []slotNames {
	out := make([]slotNames, n)
	for k := 1; k <= n; k++ {
		sn := &out[k-1]
		sn.thread = "smvx-follower"
		if k > 1 {
			sn.thread = fmt.Sprintf("smvx-follower%d", k)
		}
		sn.sections = make([]string, len(clonedSections))
		for i, sec := range clonedSections {
			sn.sections[i] = fmt.Sprintf("v%d:%s", k+1, sec)
		}
		sn.heap = fmt.Sprintf("v%d:heap", k+1)
	}
	return out
}

// leaderHeapBase returns the base of the leader's heap region.
func (mo *Monitor) leaderHeapBase() mem.Addr {
	base, _ := mo.lib.HeapBounds(0)
	return base
}

// Start implements machine.MVX: the mvx_start() call. It resolves the
// protected function from the profile, tears down any previous followers,
// clones the image and heap into every follower slot's window, relocates
// pointers, and launches the follower variant threads.
func (mo *Monitor) Start(t *machine.Thread, fn string, args ...uint64) error {
	mo.mu.Lock()
	if !mo.setup {
		mo.mu.Unlock()
		return ErrNotSetup
	}
	if mo.session != nil {
		mo.mu.Unlock()
		return ErrRegionActive
	}
	mo.mu.Unlock()

	// Resolve the protected function name through the profile's symbol
	// table, as mvx_start does with the /tmp profile file (Section 3.2).
	if _, ok := mo.profile.Lookup(fn); !ok {
		return fmt.Errorf("smvx: mvx_start: function %q not in profile", fn)
	}
	if _, ok := mo.img.Lookup(fn); !ok {
		return fmt.Errorf("smvx: mvx_start: function %q not in image", fn)
	}

	// Containment gate: after a policy detach the affected slots are down.
	// PolicyRestartFollower re-clones the whole set here — at region
	// entry, where variant creation is already paid for — while the budget
	// and backoff allow; with every slot down and no restart available the
	// region runs leader-only; with only some slots down the up slots keep
	// lockstep and the down ones stay quarantined.
	restarted := false
	var upBuf, downBuf [MaxVariants - 1]bool
	upSlot := upBuf[:mo.numFollowers()]
	for i := range upSlot {
		upSlot[i] = true
	}
	if mo.contain() {
		mo.mu.Lock()
		down := downBuf[:copy(downBuf[:], mo.slotDown)]
		used := mo.restartsUsed
		nextAt := mo.nextRestartAt
		mo.mu.Unlock()
		anyDown, allDown := false, true
		for _, d := range down {
			anyDown = anyDown || d
			allDown = allDown && d
		}
		if anyDown {
			canRestart := mo.opts.Policy == PolicyRestartFollower &&
				used < mo.opts.RestartBudget && mo.m.Counter().Cycles() >= nextAt
			switch {
			case canRestart:
				mo.mu.Lock()
				mo.restartsUsed++
				for i := range mo.slotDown {
					mo.slotDown[i] = false
				}
				mo.degraded = false
				mo.mu.Unlock()
				restarted = true
			case allDown:
				return mo.startLeaderOnly(t, fn)
			default:
				for i, d := range down {
					if d {
						upSlot[i] = false
					}
				}
			}
		}
	}

	delta := mo.opts.Delta
	as := mo.m.AddressSpace()
	ctr := mo.m.Counter()
	var stats CreationStats
	mo.rec.Record(obs.EvRegionStart, obs.VariantLeader, t.TID(), fn, 0, 0, 0)
	// End-to-end mvx_start span (variant.create.cycles); the Table 2 phase
	// sum is observed separately as variant.creation.cycles below.
	createSpan := mo.rec.BeginVariantCreateSpan(t.TID(), fn)

	var deltaBuf [MaxVariants - 1]int64
	upDeltas := deltaBuf[:0]
	for k := 1; k <= mo.numFollowers(); k++ {
		if upSlot[k-1] {
			upDeltas = append(upDeltas, delta*int64(k))
		}
	}

	mo.mu.Lock()
	reuse := mo.opts.ReuseVariant && mo.variantReady
	mo.mu.Unlock()

	if reuse {
		// Section 5 mitigation: the followers' mappings persist across
		// regions; only their contents are refreshed and re-scanned, off
		// the critical path (charged to total CPU, not wall time). Fresh
		// stacks are still needed per region.
		mo.destroyStacks()
		wall := as.GetWallCounter()
		as.SetWallCounter(nil)
		err := mo.refreshVariant(upDeltas, &stats)
		as.SetWallCounter(wall)
		if err != nil {
			return err
		}
	} else {
		// Reclaim any previous mappings before recreating from scratch.
		bases := mo.destroyFollower()
		bases, err := mo.createVariants(upSlot, upDeltas, &stats, bases)
		if err != nil {
			return err
		}
		mo.mu.Lock()
		mo.followerBases = bases
		mo.mu.Unlock()
	}

	// Step 4 — clone() each follower thread and redirect it to the
	// protected function.
	s := newSession(mo, fn, t.TID())
	s.restarted = restarted
	var launchBuf [MaxVariants - 1]*followerSlot
	launched := launchBuf[:0]
	mo.mu.Lock()
	s.takeSlots()
	for i, sl := range s.slots {
		if !upSlot[i] {
			// The slot stays quarantined this region: born detached and
			// dead so the rendezvous paths skip it.
			sl.detachOnce.Do(func() { close(sl.detachCh) })
			sl.markDead(nil)
			continue
		}
		sl.tid = mo.m.AllocTID()
		launched = append(launched, sl)
		mo.followerTIDs = append(mo.followerTIDs, sl.tid)
	}
	mo.session = s
	mo.curRegion.Store(s.lr)
	mo.lastCreation = stats // clone cycles patched below
	mo.variantReady = true
	mo.mu.Unlock()

	// The leader's PKRU now excludes every follower key.
	t.WRPKRU(mo.appPKRU(t))

	heapLo := mo.leaderHeapBase()
	heapHi := mo.lib.HeapWatermark(0)

	// Entry checkpoint: the follower clones are fully built but not yet
	// launched, so this is the region's one guaranteed quiescent anchor.
	// Strict mode re-captures at rendezvous cadence; pipelined mode only at
	// barriers — a region that diverges before any barrier rewinds here.
	// No call is in flight, so the ledger charges it to the barrier class,
	// as it does a name outside the call table.
	if mo.snapshotDue(s) {
		mo.captureCheckpoint(s, t, ledger.ClassBarrier, 0)
	}

	cloneMark := ctr.Cycles()
	for _, sl := range launched {
		// Rebase pointer-looking arguments into this slot's window: the
		// protected function's argument variables (Listing 1) may point
		// into the leader's image or heap, and each follower must see its
		// own copy — the same address-range treatment the special
		// emulation category applies to epoll_data (Section 3.3).
		sl.args = sl.args[:0]
		for _, a := range args {
			v := mem.Addr(a)
			if (v >= mo.img.Base && v < mo.img.End()) ||
				(heapLo != 0 && v >= heapLo && v < heapHi) {
				a = uint64(int64(a) + sl.delta)
			}
			sl.args = append(sl.args, a)
		}
		sl.thread = mo.m.Process().CloneThread(sl.launch)
	}
	if d := mo.opts.RendezvousDeadline; d > 0 {
		mo.wd.arm(s, d)
	}
	cloneCost := ctr.Cycles() - cloneMark
	if floor := mo.m.Costs().ThreadClone * clock.Cycles(len(launched)); cloneCost < floor {
		cloneCost = floor
	}

	mo.mu.Lock()
	mo.lastCreation.CloneCycles = cloneCost
	stats = mo.lastCreation
	mo.mu.Unlock()

	if rec := mo.rec; rec != nil {
		// The Table 2 phase breakdown of this mvx_start().
		for _, ph := range []struct {
			name   string
			cycles clock.Cycles
		}{
			{"dup", stats.DupCycles},
			{"data_scan", stats.DataScanCycles},
			{"heap_scan", stats.HeapScanCycles},
			{"clone", stats.CloneCycles},
		} {
			rec.Record(obs.EvVariantPhase, obs.VariantLeader, t.TID(), ph.name, uint64(ph.cycles), 0, 0)
		}
		m := rec.Metrics()
		m.Observe("variant.creation.cycles", uint64(stats.Total()))
		m.Add("variant.pointers_relocated", uint64(stats.PointersRelocated))
	}
	createSpan.End(uint64(stats.PointersRelocated))
	if restarted && len(launched) > 0 {
		mo.mu.Lock()
		n := mo.restartsUsed
		mo.mu.Unlock()
		mo.rec.Record(obs.EvFollowerRestarted, obs.VariantFollower, launched[0].tid, fn, uint64(n), 0, 0)
		mo.rec.Metrics().Inc("policy.follower_restarted")
	}
	return nil
}

// runFollower is the body of the slot's follower thread for one region
// (followerSlot.launch): it builds the follower's machine thread in the
// slot's window and runs the protected function there with the slot's
// rebased arguments.
func (sl *followerSlot) runFollower() error {
	s := sl.sess
	mo := s.mon
	dk := sl.delta
	fStackBase := mem.Addr(int64(mo.img.End())+dk) + 0x100_0000
	ft, err := mo.m.NewThreadAt(mo.slotNames[sl.id-1].thread, sl.tid, fStackBase, followerStackPages, dk)
	if err != nil {
		err = fmt.Errorf("smvx: follower thread: %w", err)
		mo.raiseAlarm(Alarm{
			Reason: AlarmFollowerFault, Function: s.fn,
			Variant: sl.id, Detail: err.Error(),
		})
		sl.markDead(err)
		return err
	}
	if sl.ft != nil {
		ft.TakeBuffers(sl.ft)
	}
	sl.ft = ft
	ft.SetVariant(int(sl.id))
	mo.mu.Lock()
	mo.followerStacks = append(mo.followerStacks, ft.StackBase())
	mo.mu.Unlock()
	if err := mo.m.AddressSpace().SetRegionKey(ft.StackBase(), mo.pkeyFollowers[sl.id-1]); err != nil {
		sl.markDead(err)
		return err
	}
	// The follower's view: only its own window is executable. The
	// leader's gadget addresses are "otherwise unmapped" here
	// (Section 4.2).
	ft.SetBackground(true)
	ft.SetExecWindow([2]mem.Addr{mem.Addr(int64(mo.img.Base) + dk), mem.Addr(int64(mo.img.End()) + dk)})
	ft.WRPKRU(mo.appPKRU(ft))
	runErr := ft.Run(func(t *machine.Thread) { t.Call(s.fn, sl.args...) })
	if runErr != nil && !errors.Is(runErr, ErrDetached) {
		// The fault is detected on the follower's own goroutine: the
		// leader is still running, so only the follower's thread state
		// may be read here. An ErrDetached death is just the policy
		// winding a severed follower down — no new alarm.
		var snaps []obs.ThreadSnapshot
		if mo.rec != nil {
			var fe *mem.FaultError
			if errors.As(runErr, &fe) {
				mo.rec.Record(obs.EvPageFault, sl.id, ft.TID(),
					fe.Kind.String(), uint64(fe.Addr), 0, 0)
			}
			snaps = []obs.ThreadSnapshot{mo.snapshot("follower", ft)}
		}
		mo.raiseAlarm(Alarm{
			Reason: AlarmFollowerFault, CallIndex: s.calls.Load(),
			Function: s.fn, Variant: sl.id, Detail: runErr.Error(),
		}, snaps...)
		if mo.contain() {
			mo.detachFollower(s, sl, "follower-fault")
		}
	}
	sl.markDead(runErr)
	return runErr
}

// createVariants builds every up slot's window from scratch — Table 2's
// copy+move, .data/.bss relocation and heap scan phases, charged into stats
// — and returns the bases of the regions it mapped, appended to bases. On
// error it unmaps those regions and drops the cloned heaps, so a failed
// mvx_start leaves no untracked follower mapping to block the next one.
func (mo *Monitor) createVariants(upSlot []bool, upDeltas []int64, stats *CreationStats, bases []mem.Addr) (_ []mem.Addr, err error) {
	as := mo.m.AddressSpace()
	ctr := mo.m.Counter()
	defer func() {
		if err == nil {
			return
		}
		for _, b := range bases {
			_ = as.Unmap(b)
		}
		for _, dk := range upDeltas {
			mo.lib.DropHeap(dk)
		}
	}()

	// Step 1 — process duplication: clone every image section plus the
	// heap into each slot's shifted window ("copy+move" in Table 2).
	mark := ctr.Cycles()
	heapBase, heapSize := mo.lib.HeapBounds(0)
	for k := 1; k <= mo.numFollowers(); k++ {
		if !upSlot[k-1] {
			continue
		}
		dk := mo.opts.Delta * int64(k)
		names := &mo.slotNames[k-1]
		for i, secName := range clonedSections {
			sec, ok := mo.img.Section(secName)
			if !ok {
				continue
			}
			clone, err := as.CloneRegionShifted(sec.Addr, dk, names.sections[i])
			if err != nil {
				return bases, fmt.Errorf("smvx: clone %s: %w", secName, err)
			}
			bases = append(bases, clone.Base)
			// Variant separation: each slot's regions carry that slot's own
			// key.
			if sec.Perm&mem.PermWrite != 0 {
				if err := as.SetRegionKey(clone.Base, mo.pkeyFollowers[k-1]); err != nil {
					return bases, err
				}
			}
		}
		if heapSize > 0 {
			clone, err := as.CloneRegionShifted(heapBase, dk, names.heap)
			if err != nil {
				return bases, fmt.Errorf("smvx: clone heap: %w", err)
			}
			bases = append(bases, clone.Base)
			if err := as.SetRegionKey(clone.Base, mo.pkeyFollowers[k-1]); err != nil {
				return bases, err
			}
			if err := mo.lib.CloneHeap(0, dk, dk); err != nil {
				return bases, fmt.Errorf("smvx: clone heap metadata: %w", err)
			}
		}
	}
	// Tag the leader's writable regions with the leader key so a follower
	// access through a stale pointer faults.
	for _, secName := range []string{image.SecData, image.SecBSS, image.SecGotPLT} {
		if sec, ok := mo.img.Section(secName); ok {
			if err := as.SetRegionKey(sec.Addr, mo.pkeyLeader); err != nil {
				return bases, err
			}
		}
	}
	if heapSize > 0 {
		if err := as.SetRegionKey(heapBase, mo.pkeyLeader); err != nil {
			return bases, err
		}
	}
	stats.DupCycles = ctr.Cycles() - mark
	return bases, mo.relocate(upDeltas, stats)
}

// relocate runs Table 2's two relocation steps in every follower window
// at a shift in deltas, charging each step into stats: step 2 rebases
// .data/.bss pointers (only the hinted globals' slots with static hints,
// the alias-analysis narrowing of Section 3.4), step 3 scans every
// 8-byte-aligned heap slot up to the allocation watermark (the dominant
// cost in Table 2). Variant creation and reuse both end with it.
func (mo *Monitor) relocate(deltas []int64, stats *CreationStats) error {
	ctr := mo.m.Counter()
	mark := ctr.Cycles()
	for _, dk := range deltas {
		n, err := mo.relocateDataPointers(dk)
		if err != nil {
			return err
		}
		stats.PointersRelocated += n
	}
	stats.DataScanCycles = ctr.Cycles() - mark

	mark = ctr.Cycles()
	if heapBase, heapSize := mo.lib.HeapBounds(0); heapSize > 0 {
		for _, dk := range deltas {
			lo := mem.Addr(int64(heapBase) + dk)
			hi := mem.Addr(int64(mo.lib.HeapWatermark(0)) + dk)
			n, err := mo.relocateRange(lo, hi, dk)
			if err != nil {
				return err
			}
			stats.PointersRelocated += n
		}
	}
	stats.HeapScanCycles = ctr.Cycles() - mark
	return nil
}

// startLeaderOnly opens a degraded protected region with no followers: the
// policy detached (or could not yet restart) every other variant, so the
// leader runs single-variant — dMVX's detached mode. No clone work happens,
// the session seats no slot, and lockstep calls go straight to libc.
// EvRegionStart carries Arg0=1 to mark the degraded entry.
func (mo *Monitor) startLeaderOnly(t *machine.Thread, fn string) error {
	s := newSession(mo, fn, t.TID())
	s.leaderOnly = true
	mo.mu.Lock()
	mo.session = s
	mo.curRegion.Store(s.lr)
	mo.mu.Unlock()
	t.WRPKRU(mo.appPKRU(t))
	mo.rec.Record(obs.EvRegionStart, obs.VariantLeader, t.TID(), fn, 1, 0, 0)
	mo.rec.Metrics().Inc("region.leader_only")
	return nil
}

// relocateDataPointers scans a follower window's .data and .bss clones and
// rebases pointers into leader ranges.
func (mo *Monitor) relocateDataPointers(delta int64) (int, error) {
	total := 0
	if len(mo.opts.ScanHints) > 0 {
		// Static-analysis narrowing: scan only the hinted globals.
		for _, name := range mo.opts.ScanHints {
			sym, ok := mo.img.Lookup(name)
			if !ok {
				continue
			}
			lo := mem.Addr(int64(sym.Addr) + delta)
			hi := lo + mem.Addr(sym.Size)
			n, err := mo.relocateRange(lo, hi, delta)
			if err != nil {
				return total, err
			}
			total += n
		}
		return total, nil
	}
	for _, secName := range []string{image.SecData, image.SecBSS} {
		sec, ok := mo.img.Section(secName)
		if !ok {
			continue
		}
		lo := mem.Addr(int64(sec.Addr) + delta)
		hi := lo + mem.Addr(sec.Size)
		n, err := mo.relocateRange(lo, hi, delta)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// relocateRange rebases every pointer-looking slot in [lo, hi) whose value
// falls inside the leader's image or its heap below the watermark. The scan
// is given the whole heap region, whose bounds stay put as the heap grows,
// so the pages' cached candidates outlive the growth; hits past the
// watermark are dropped here.
func (mo *Monitor) relocateRange(lo, hi mem.Addr, delta int64) (int, error) {
	as := mo.m.AddressSpace()
	imgLo, imgHi := mo.img.Base, mo.img.End()
	heapLo, heapSize := mo.lib.HeapBounds(0)
	heapHi := mo.lib.HeapWatermark(0)
	ranges := [2]mem.ValueRange{{Lo: imgLo, Hi: imgHi}, {Lo: heapLo, Hi: heapLo + mem.Addr(heapSize)}}
	mo.scanHits = as.ScanPointers(lo, hi, ranges[:], mo.scanHits[:0])
	relocated := 0
	for _, h := range mo.scanHits {
		if (h.Value < imgLo || h.Value >= imgHi) && h.Value >= heapHi {
			continue
		}
		nv := uint64(int64(h.Value) + delta)
		if err := as.Write64(h.Slot, nv); err != nil {
			return 0, fmt.Errorf("smvx: relocate %s: %w", h.Slot, err)
		}
		relocated++
	}
	return relocated, nil
}

// End implements machine.MVX: the mvx_end() call. It waits for each
// follower via the wait() syscall — bounded by the rendezvous deadline, so
// a follower that never exits the region trips the watchdog instead of
// deadlocking mvx_end — merges the variants, decides on a rollback and then
// ends the region's checkpoint, flushes the region's cost-ledger cells,
// records the region report, and leaves the followers' mappings in place
// (they are reclaimed by the next Start or by DestroyFollower).
func (mo *Monitor) End(t *machine.Thread) error {
	mo.mu.Lock()
	s := mo.session
	mo.mu.Unlock()
	if s == nil {
		return ErrNoRegion
	}
	close(s.leaderDone)
	var followerErr error
	for _, sl := range s.slots {
		if sl.thread == nil {
			continue
		}
		done := mo.m.Process().WaitThreadCh(sl.thread)
		waitStart := mo.m.Counter().Cycles()
		s.waitingSince.Store(int64(waitStart) + 1)
		// Non-blocking pre-check: once timedOut has closed (an earlier slot
		// blew the deadline), the select below picks ready cases at random —
		// a slot that already finished must not be charged with a fresh
		// region-exit timeout.
		finished := false
		select {
		case <-done:
			finished = true
		default:
		}
		if !finished {
			select {
			case <-done:
				finished = true
			case <-s.timedOut:
				// The deadline tripped, perhaps on another slot. A slot still
				// attached gets the grace window a rendezvous grants (see
				// collect): one released from its last call a moment ago is
				// winding down, not hung.
				if !sl.detached() {
					select {
					case <-done:
						finished = true
					case <-time.After(pipelineGrace):
					}
				}
			}
		}
		s.waitingSince.Store(0)
		var serr error
		if finished {
			serr = sl.err
		} else {
			if !sl.detached() {
				mo.raiseAlarm(Alarm{
					Reason: AlarmRendezvousTimeout, CallIndex: s.calls.Load(), Function: s.fn,
					Variant: sl.id,
					Detail:  "follower failed to exit the region before the rendezvous deadline",
				})
				s.diverged.Store(true)
				mo.rec.Metrics().Inc("rendezvous.timeout")
			}
			mo.detachFollower(s, sl, "region-exit-timeout")
			serr = ErrRendezvousTimeout
		}
		if followerErr == nil && serr != nil {
			followerErr = serr
		}
	}
	mo.wd.disarm(s)
	// A pipelined follower that left the region early strands unverified
	// leader records on its ring — a sequence divergence even when nothing
	// faulted (strict mode reaches the same verdict via the slot's death at
	// the leader's next call).
	if s.pipelined {
		for _, sl := range s.slots {
			if len(sl.ring) > 0 {
				s.diverged.Store(true)
			}
		}
	}

	// Rollback recovery runs here — the severed followers have wound down,
	// the watchdog is stopped, and the leader is the only thread touching
	// the address space, so the in-place restore cannot race a variant.
	outcome := mo.maybeRollback(s, t.TID(), s.diverged.Load() || followerErr != nil)
	mo.dropCheckpoint()
	// The region's cost cells, its snapshot and restore charges included,
	// reach the recorder before its EvRegionEnd.
	s.lr.Flush()

	anyDetached := false
	for _, sl := range s.slots {
		if sl.detached() {
			anyDetached = true
		}
	}
	report := RegionReport{
		Function:          s.fn,
		LibcCalls:         s.calls.Load(),
		EmulatedBytes:     s.emulatedBytes.Load(),
		Diverged:          s.diverged.Load() || followerErr != nil,
		FollowerErr:       followerErr,
		Degraded:          s.leaderOnly || anyDetached,
		FollowerRestarted: s.restarted,
		RolledBack:        outcome == rollbackDone,
	}

	mo.mu.Lock()
	if !s.leaderOnly {
		report.Creation = mo.lastCreation
	}
	mo.regionCalls[s.fn] += report.LibcCalls
	mo.reports = append(mo.reports, report)
	mo.session = nil
	mo.curRegion.Store(nil)
	mo.mu.Unlock()

	if rec := mo.rec; rec != nil {
		rec.Record(obs.EvRegionEnd, obs.VariantLeader, t.TID(), s.fn, report.LibcCalls, 0, 0)
		m := rec.Metrics()
		m.Observe("region.libc_calls", report.LibcCalls)
		m.Add("region.emulated_bytes", report.EmulatedBytes)
		m.SetGauge("rss_kb", float64(mo.m.AddressSpace().ResidentKB()))
		if report.Degraded {
			m.Inc("region.degraded")
		}
		if report.RolledBack {
			m.Inc("region.rolled_back")
		}
	}
	if report.RolledBack {
		// Advisory, not fatal: the caller's thread is healthy, but any
		// external state tied to the undone region (an accepted connection
		// mid-request) must be discarded by whoever holds it.
		return machine.ErrRegionRolledBack
	}
	return nil
}

// Invoke implements machine.MVX: one protected region end-to-end —
// mvx_start, the guarded call, mvx_end. Unlike the raw Start/Call/End
// sequence, Invoke arms the region for a mid-flight monitor abort: under
// PolicyRollback a region whose followers have died is unwound back to this
// boundary at the leader's next rendezvous (see maybeAbortRegion) instead
// of running compromised to completion, and End's rollback restores the
// checkpoint before the caller resumes. Every other policy behaves exactly
// as the raw sequence. A Start failure degrades to an unprotected call,
// matching the evaluation applications' historical mvx_start handling.
func (mo *Monitor) Invoke(t *machine.Thread, fn string, args ...uint64) (uint64, error) {
	if err := mo.Start(t, fn, args...); err != nil {
		return t.Call(fn, args...), nil
	}
	mo.mu.Lock()
	if s := mo.session; s != nil {
		s.abortable = true
	}
	mo.mu.Unlock()
	ret, abort := t.CallGuarded(fn, args...)
	err := mo.End(t)
	if abort != nil && mo.rec != nil {
		mo.rec.Record(obs.EvRegionAbort, obs.VariantLeader, t.TID(), fn, 0, 0, 0)
	}
	return ret, err
}

// DestroyFollower unmaps every follower variant's regions and drops their
// heaps, releasing the replicated RSS.
func (mo *Monitor) DestroyFollower() {
	mo.destroyFollower()
}

// destroyFollower reclaims every follower mapping and returns the emptied
// list of their bases for the next creation to fill.
func (mo *Monitor) destroyFollower() []mem.Addr {
	mo.destroyStacks()
	mo.mu.Lock()
	bases := mo.followerBases
	mo.followerBases = nil
	mo.variantReady = false
	mo.mu.Unlock()
	as := mo.m.AddressSpace()
	for _, b := range bases {
		_ = as.Unmap(b)
	}
	for k := 1; k <= mo.numFollowers(); k++ {
		mo.lib.DropHeap(mo.opts.Delta * int64(k))
	}
	return bases[:0]
}

// destroyStacks unmaps the followers' stack regions and their threads'
// trampoline safe stacks (a fresh follower thread is created per region
// even under variant reuse). A region a rollback already removed is
// skipped.
func (mo *Monitor) destroyStacks() {
	as := mo.m.AddressSpace()
	mo.mu.Lock()
	defer mo.mu.Unlock()
	for _, tid := range mo.followerTIDs {
		st, ok := mo.tids[tid]
		if !ok || st.safeStack == 0 {
			continue
		}
		_ = as.Unmap(st.safeStack - safeStackPages*mem.PageSize)
		if st.quarantined {
			st.safeStack = 0
			mo.tids[tid] = st
		} else {
			delete(mo.tids, tid)
		}
	}
	mo.followerTIDs = mo.followerTIDs[:0]
	for _, b := range mo.followerStacks {
		_ = as.Unmap(b)
	}
	mo.followerStacks = mo.followerStacks[:0]
}

// refreshVariant re-copies the leader's current state into the persistent
// follower mappings at each window shift in deltas and re-relocates
// pointers — the reuse path.
func (mo *Monitor) refreshVariant(deltas []int64, stats *CreationStats) error {
	as := mo.m.AddressSpace()
	ctr := mo.m.Counter()

	mark := ctr.Cycles()
	heapBase, heapSize := mo.lib.HeapBounds(0)
	for _, delta := range deltas {
		for _, secName := range clonedSections {
			sec, ok := mo.img.Section(secName)
			if !ok {
				continue
			}
			if err := as.RefreshClone(sec.Addr, delta); err != nil {
				return fmt.Errorf("smvx: refresh %s: %w", secName, err)
			}
		}
		if heapSize > 0 {
			if err := as.RefreshClone(heapBase, delta); err != nil {
				return fmt.Errorf("smvx: refresh heap: %w", err)
			}
			if err := mo.lib.CloneHeap(0, delta, delta); err != nil {
				return err
			}
		}
	}
	stats.DupCycles = ctr.Cycles() - mark
	return mo.relocate(deltas, stats)
}
