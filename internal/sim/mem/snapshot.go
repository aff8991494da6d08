package mem

import (
	"fmt"

	"smvx/internal/sim/clock"
)

// Snapshot is a copy-on-write checkpoint of an AddressSpace: the region
// table (names, bases, sizes, permissions, MPK keys), the set of resident
// pages, and — populated lazily by the write barrier — pristine copies of
// every page dirtied since capture, taint tags included.
//
// Only the most recently captured snapshot is "active": the mutation paths
// save pre-images into it, so only it can be restored. Capturing a new
// snapshot deactivates (and permanently invalidates) the previous one.
// Capture is O(resident pages) bookkeeping; the page copies are deferred
// to first-write time, which is what makes checkpointing cheap enough to
// run at a fixed cadence while the protected region executes.
type Snapshot struct {
	gen          uint64
	regions      []Region // deep copy, sorted by Base
	taintEnabled bool
	// resident is the set of page bases that were faulted in at capture.
	// Pages born later are dropped by Restore, not saved by the barrier.
	resident map[Addr]struct{}
	// saved maps dirtied page bases to their capture-time contents. Entries
	// survive Restore (they are still the capture-time truth), so repeated
	// rollbacks to the same checkpoint cost no additional page saves.
	saved map[Addr]*page
}

// Generation returns the capture ordinal, monotonically increasing per
// AddressSpace.
func (s *Snapshot) Generation() uint64 { return s.gen }

// DirtyPages returns how many pages the write barrier has preserved since
// capture — the copy-on-write footprint of the checkpoint.
func (s *Snapshot) DirtyPages() int { return len(s.saved) }

// ResidentPages returns how many pages were resident at capture.
func (s *Snapshot) ResidentPages() int { return len(s.resident) }

// Regions returns the region table as it stood at capture.
func (s *Snapshot) Regions() []Region {
	out := make([]Region, len(s.regions))
	copy(out, s.regions)
	return out
}

// Snapshot captures a copy-on-write checkpoint and makes it the address
// space's active snapshot. The capture itself copies no page data: the
// write barrier in every mutation path preserves a page's pre-image the
// first time it is dirtied. Each resident page is charged one MemAccess
// (arming its dirty tracking), so capture cost scales with RSS, not with
// how much later gets written.
func (as *AddressSpace) Snapshot() *Snapshot {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.snapGen++
	s := &Snapshot{
		gen:          as.snapGen,
		taintEnabled: as.taintEnabled.Load(),
		resident:     make(map[Addr]struct{}, len(as.pages)),
		saved:        make(map[Addr]*page),
	}
	s.regions = make([]Region, len(as.regions))
	for i, r := range as.regions {
		s.regions[i] = *r
	}
	for base := range as.pages {
		s.resident[base] = struct{}{}
	}
	as.snap = s
	as.charge(as.costs.MemAccess*clock.Cycles(len(as.pages)), true)
	return s
}

// ActiveSnapshot returns the snapshot currently armed for copy-on-write,
// or nil.
func (as *AddressSpace) ActiveSnapshot() *Snapshot {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.snap
}

// DropSnapshot disarms the active snapshot without restoring it. Saved
// pre-images are released.
func (as *AddressSpace) DropSnapshot() {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.snap = nil
}

// cowSaveLocked preserves the pre-image of the page at base into the
// active snapshot, once. Must be called with as.mu held, before the page
// is mutated — that ordering is what makes a concurrent Snapshot/Restore
// pair unable to observe a torn page. Pages born after capture are not
// saved: Restore drops them instead.
func (as *AddressSpace) cowSaveLocked(base Addr, pg *page, wall bool) {
	s := as.snap
	if s == nil {
		return
	}
	if _, dirty := s.saved[base]; dirty {
		return
	}
	if _, wasResident := s.resident[base]; !wasResident {
		return
	}
	cp := &page{data: pg.data}
	if pg.taint != nil {
		cp.taint = append([]byte(nil), pg.taint...)
	}
	s.saved[base] = cp
	as.charge(as.costs.PageCopy, wall)
}

// Restore rolls the address space back, in place, to the state s captured:
// dirtied pages get their saved pre-images back, pages faulted in after
// capture are dropped, and the region table — including permissions and
// protection keys — is reinstated. Only the active snapshot can be
// restored (an older one no longer has complete pre-images). The snapshot
// stays active afterwards, so the same checkpoint can absorb repeated
// rollbacks.
func (as *AddressSpace) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("mem: restore: nil snapshot")
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if as.snap != s {
		return fmt.Errorf("mem: restore: snapshot generation %d is no longer active", s.gen)
	}
	touched := clock.Cycles(0)
	// Put back the pre-images of every dirtied page, reusing the live page
	// object where one exists so references held by in-flight scans stay
	// coherent.
	for base, cp := range s.saved {
		pg := as.pages[base]
		if pg == nil {
			pg = &page{}
			as.pages[base] = pg
		}
		pg.data = cp.data
		if cp.taint != nil {
			pg.taint = append([]byte(nil), cp.taint...)
		} else {
			pg.taint = nil
		}
		touched++
	}
	// Drop pages that did not exist at capture (lazily faulted in, or
	// mapped by a post-capture region).
	for base := range as.pages {
		if _, ok := s.resident[base]; !ok {
			delete(as.pages, base)
			touched++
		}
	}
	// Reinstate the region table. Regions whose base survives are restored
	// field-by-field in place, keeping pointers other subsystems hold into
	// the table valid; added regions vanish, removed ones come back.
	cur := make(map[Addr]*Region, len(as.regions))
	for _, r := range as.regions {
		cur[r.Base] = r
	}
	restored := make([]*Region, 0, len(s.regions))
	for _, sv := range s.regions {
		if r, ok := cur[sv.Base]; ok {
			*r = sv
			restored = append(restored, r)
		} else {
			rc := sv
			restored = append(restored, &rc)
		}
	}
	as.regions = restored // s.regions was captured sorted
	as.taintEnabled.Store(s.taintEnabled)
	as.bumpLocked()
	as.charge(as.costs.PageCopy*touched, true)
	return nil
}
