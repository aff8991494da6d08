package mem

import (
	"fmt"
	"sort"

	"smvx/internal/sim/clock"
)

// Snapshot is a copy-on-write checkpoint of an AddressSpace: the region
// table (names, bases, sizes, permissions, MPK keys), the set of resident
// pages, and — populated lazily by the write barrier — pristine copies of
// every page dirtied since capture, taint tags included.
//
// Only the most recently captured snapshot is "active": the mutation paths
// save pre-images into it, so only it can be restored. Capturing a new
// snapshot, or dropping this one, deactivates (and permanently
// invalidates) it.
// Capture is O(resident pages) bookkeeping; the page copies are deferred
// to first-write time, which is what makes checkpointing cheap enough to
// run at a fixed cadence while the protected region executes.
type Snapshot struct {
	gen          uint64
	regions      []Region // deep copy, sorted by Base
	taintEnabled bool
	// resident marks the pages that were faulted in at capture: resident[i]
	// holds one bit per page of regions[i]. Pages born later are dropped by
	// Restore, not saved by the barrier.
	resident  [][]uint64
	nResident int
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
func (s *Snapshot) ResidentPages() int { return s.nResident }

// wasResident reports whether the page based at base was resident at
// capture.
func (s *Snapshot) wasResident(base Addr) bool {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].End() > base })
	if i == len(s.regions) || !s.regions[i].Contains(base) {
		return false
	}
	return s.residentAt(i, int((base-s.regions[i].Base)/PageSize))
}

// residentAt reports whether page j of regions[i] was resident at capture.
func (s *Snapshot) residentAt(i, j int) bool {
	return s.resident[i][j/64]&(1<<(j%64)) != 0
}

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
// how much later gets written. The resident set is one bitmap per region,
// built by walking the page tables.
func (as *AddressSpace) Snapshot() *Snapshot {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.snapGen++
	s := &Snapshot{
		gen:          as.snapGen,
		taintEnabled: as.taintEnabled.Load(),
		regions:      make([]Region, len(as.maps)),
		resident:     make([][]uint64, len(as.maps)),
		nResident:    as.resident,
		saved:        make(map[Addr]*page),
	}
	words := 0
	for _, m := range as.maps {
		words += (len(m.pages) + 63) / 64
	}
	bits := make([]uint64, words)
	for i, m := range as.maps {
		s.regions[i] = m.Region
		n := (len(m.pages) + 63) / 64
		s.resident[i], bits = bits[:n:n], bits[n:]
		for j, pg := range m.pages {
			if pg != nil {
				s.resident[i][j/64] |= 1 << (j % 64)
			}
		}
	}
	as.snap = s
	as.charge(as.costs.MemAccess*clock.Cycles(as.resident), true)
	return s
}

// DropSnapshot disarms s without restoring it, so later mutations save no
// pre-image into it. It does nothing when s is no longer the active
// snapshot: a newer capture has disarmed it.
func (as *AddressSpace) DropSnapshot(s *Snapshot) {
	as.mu.Lock()
	defer as.mu.Unlock()
	if as.snap == s {
		as.snap = nil
	}
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
	if !s.wasResident(base) {
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
// capture are released to the free list, and the region table — including
// permissions and protection keys — is reinstated. Only the active
// snapshot can be restored (an older one no longer has complete
// pre-images). The snapshot stays active afterwards, so the same
// checkpoint can absorb repeated rollbacks.
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
	// Reinstate the region table. A region whose base survives is restored
	// field by field in its mapping, keeping pointers other subsystems hold
	// into the table valid, and keeps its page table when its size is
	// unchanged; added regions vanish, removed ones come back. A page that
	// was resident at capture survives at its address, wherever the table
	// holding it now is; any other page is released.
	cur := as.maps
	as.maps = make([]*mapping, len(s.regions))
	var orphans []*mapping // pages to re-home or release once as.maps is whole
	k := 0
	for i, sv := range s.regions {
		for ; k < len(cur) && cur[k].Base < sv.Base; k++ {
			orphans = append(orphans, cur[k])
		}
		if k < len(cur) && cur[k].Base == sv.Base {
			m := cur[k]
			k++
			if m.Size == sv.Size {
				for j, pg := range m.pages {
					if pg != nil && !s.residentAt(i, j) {
						m.pages[j] = nil
						as.releaseLocked(pg)
						touched++
					}
				}
			} else {
				orphans = append(orphans, &mapping{Region: m.Region, pages: m.pages})
				m.pages = make([]*page, sv.Size/PageSize)
			}
			m.Region = sv
			as.maps[i] = m
			continue
		}
		as.maps[i] = &mapping{Region: sv, pages: make([]*page, sv.Size/PageSize)}
	}
	orphans = append(orphans, cur[k:]...)
	for _, o := range orphans {
		for j, pg := range o.pages {
			if pg == nil {
				continue
			}
			if base := o.Base + Addr(j)*PageSize; s.wasResident(base) {
				m := as.mappingAtLocked(base)
				m.pages[m.slot(base)] = pg
			} else {
				as.releaseLocked(pg)
				touched++
			}
		}
		o.pages = nil
	}
	// Put back the pre-images of every dirtied page, reusing the page where
	// one survives. Every saved page lies in a captured region.
	for base, cp := range s.saved {
		m := as.mappingAtLocked(base)
		j := m.slot(base)
		pg := m.pages[j]
		if pg == nil {
			pg = as.takePageLocked(false)
			m.pages[j] = pg
		}
		pg.data = cp.data
		as.stampLocked(pg)
		if cp.taint != nil {
			pg.taint = append([]byte(nil), cp.taint...)
		} else {
			pg.taint = nil
		}
		touched++
	}
	as.taintEnabled.Store(s.taintEnabled)
	as.bumpLocked()
	as.charge(as.costs.PageCopy*touched, true)
	return nil
}
