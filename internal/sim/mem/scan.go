package mem

import (
	"fmt"
	"slices"
	"sort"

	"smvx/internal/sim/clock"
	"smvx/internal/sim/mpk"
)

// PointerHit is one pointer-looking slot found by the scanner.
type PointerHit struct {
	// Slot is the address of the 8-byte-aligned memory slot holding the
	// pointer value.
	Slot Addr
	// Value is the pointer value stored in the slot.
	Value Addr
}

// ValueRange is a half-open range [Lo, Hi) of values the pointer scanner
// takes for pointers.
type ValueRange struct {
	Lo, Hi Addr
}

// contains reports whether v lies in one of ranges.
func contains(ranges []ValueRange, v Addr) bool {
	for _, r := range ranges {
		if v >= r.Lo && v < r.Hi {
			return true
		}
	}
	return false
}

// candidates are the offsets, in ascending order, of the 8-byte-aligned
// slots of one page's contents whose value is non-zero and lies in the
// address space's scan ranges: the contents stamped stamp, under the
// ranges numbered epoch. The offsets slice may be shared by every page
// holding those contents, so it is never edited; a rescan builds a new one.
type candidates struct {
	stamp, epoch uint64
	offs         []uint16
}

// ScanPointers appends to hits, in address order, every 8-byte-aligned slot
// in [start, end) whose value is non-zero and lies in one of ranges, and
// returns the extended slice. This is the paper's strawman
// pointer-identification approach (Section 3.4): pointers are 8-byte
// aligned on x86-64, and candidate values are validated against the known
// code/data address ranges. Each visited slot is charged
// CostTable.ScanPerSlot cycles — the dominant cost in Table 2.
//
// Only resident pages are scanned: non-resident pages are known-zero and
// cannot hold pointers. The charge covers every slot, but the host reads a
// page's slots only when no scan has seen its contents yet: each page
// caches its candidates under its write stamp, and a page copied by
// CloneRegionShifted or RefreshClone uses the cache of the page it was
// copied from while that cache was built for the copied contents. So the
// clones of one source page cost one real scan between two writes to it.
// A cache is valid only for the ranges it was built for; a call with other
// ranges starts a new set. Each page is handled in one section under the
// write lock, since the cache fields are written and a page may be
// unmapped and recycled once the lock is dropped.
func (as *AddressSpace) ScanPointers(start, end Addr, ranges []ValueRange, hits []PointerHit) []PointerHit {
	start = (start + PointerAlign - 1) &^ (PointerAlign - 1)
	slots := clock.Cycles(0)
	for next := start.PageBase(); next < end; {
		as.mu.Lock()
		pageBase, pg := as.nextResidentLocked(next, end)
		if pg == nil {
			as.mu.Unlock()
			break
		}
		next = pageBase + PageSize
		lo, hi := max(pageBase, start), min(pageBase+PageSize, end)
		for _, o := range as.candidatesLocked(pg, ranges) {
			a := pageBase + Addr(o)
			if a < lo {
				continue
			}
			if a+PointerAlign > hi {
				break
			}
			hits = append(hits, PointerHit{Slot: a, Value: Addr(le64(pg.data[o : o+PointerAlign]))})
		}
		as.mu.Unlock()
		if hi > lo {
			slots += clock.Cycles((hi - lo) / PointerAlign)
		}
	}
	as.charge(as.costs.ScanPerSlot*slots, true)
	return hits
}

// candidatesLocked returns pg's pointer candidates for ranges: from its own
// cache, else from its source page's cache when that was built for pg's
// contents, else from a scan of pg's bytes, which it caches in pg and, while
// the source still holds the same contents, in the source. Must be called
// with the write lock held.
func (as *AddressSpace) candidatesLocked(pg *page, ranges []ValueRange) []uint16 {
	if !slices.Equal(as.scanRanges, ranges) {
		as.scanRanges = append(as.scanRanges[:0], ranges...)
		as.scanEpoch++
	}
	c := candidates{stamp: pg.stamp, epoch: as.scanEpoch}
	if pg.cands.stamp == c.stamp && pg.cands.epoch == c.epoch {
		return pg.cands.offs
	}
	if src := pg.src; src != nil && src.cands.stamp == c.stamp && src.cands.epoch == c.epoch {
		c.offs = src.cands.offs
	} else {
		c.offs = scanPage(&pg.data, ranges)
		if src != nil && src.stamp == c.stamp {
			src.cands = c
		}
	}
	pg.cands = c
	return c.offs
}

// scanPage returns the offsets of the 8-byte-aligned slots of data whose
// value is non-zero and lies in one of ranges, nil when there are none.
func scanPage(data *[PageSize]byte, ranges []ValueRange) []uint16 {
	var buf [PageSize / PointerAlign]uint16
	n := 0
	for o := 0; o < PageSize; o += PointerAlign {
		if v := Addr(le64(data[o : o+PointerAlign])); v != 0 && contains(ranges, v) {
			buf[n] = uint16(o)
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return slices.Clone(buf[:n])
}

// nextResidentLocked returns the first resident page based in [from, end)
// and its base, walking the page tables of the regions that overlap the
// range; the page is nil when there is none. from must be page-aligned.
// Must be called with as.mu held.
func (as *AddressSpace) nextResidentLocked(from, end Addr) (Addr, *page) {
	i := sort.Search(len(as.maps), func(i int) bool { return as.maps[i].End() > from })
	for ; i < len(as.maps) && as.maps[i].Base < end; i++ {
		m := as.maps[i]
		j := 0
		if from > m.Base {
			j = m.slot(from)
		}
		for ; j < len(m.pages); j++ {
			base := m.Base + Addr(j)*PageSize
			if base >= end {
				break
			}
			if pg := m.pages[j]; pg != nil {
				return base, pg
			}
		}
	}
	return 0, nil
}

// RelocatePointers rewrites every slot found by ScanPointers in
// [start, end) whose value falls in [oldBase, oldBase+size) by adding
// delta, returning the number of slots patched. This implements the
// pointer-relocation step of follower-variant creation (Section 3.4).
func (as *AddressSpace) RelocatePointers(start, end, oldBase Addr, size uint64, delta int64) (int, error) {
	hits := as.ScanPointers(start, end, []ValueRange{{Lo: oldBase, Hi: oldBase + Addr(size)}}, nil)
	for _, h := range hits {
		nv := Addr(int64(h.Value) + delta)
		if err := as.Write64(h.Slot, uint64(nv)); err != nil {
			return 0, fmt.Errorf("relocate slot %s: %w", h.Slot, err)
		}
	}
	return len(hits), nil
}

// RefreshClone re-copies the resident pages of the region based at srcBase
// into its existing clone at srcBase+delta — the "pre-updating" half of the
// paper's Section 5 mitigation for variant creation inside control loops:
// the clone's mappings persist across regions and only contents are
// refreshed.
func (as *AddressSpace) RefreshClone(srcBase Addr, delta int64) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	i := as.regionIndexLocked(srcBase)
	if i < 0 {
		return fmt.Errorf("mem: refresh: no region at %s", srcBase)
	}
	src := as.maps[i]
	dstBase := Addr(int64(src.Base) + delta)
	if as.mappingAtLocked(dstBase) == nil {
		return fmt.Errorf("mem: refresh: no clone at %s", dstBase)
	}
	return as.copyResidentLocked(src, dstBase)
}

// CloneRegionShifted maps a copy of the region based at srcBase to
// srcBase+delta, with name newName, copying all resident page contents.
// It charges CostTable.PageCopy per resident page and returns the new
// region. This is the "shift and clone" step of Figure 5.
func (as *AddressSpace) CloneRegionShifted(srcBase Addr, delta int64, newName string) (*Region, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	i := as.regionIndexLocked(srcBase)
	if i < 0 {
		return nil, fmt.Errorf("mem: clone: no region at %s", srcBase)
	}
	src := as.maps[i]
	newBase := Addr(int64(src.Base) + delta)
	dst, err := as.mapLocked(Region{Name: newName, Base: newBase, Size: src.Size, Perm: src.Perm, Key: src.Key})
	if err != nil {
		return nil, fmt.Errorf("mem: clone %q: %w", src.Name, err)
	}
	if err := as.copyResidentLocked(src, newBase); err != nil {
		return nil, err
	}
	return dst, nil
}

// copyResidentLocked copies every resident page of src, taint tags
// included, to the same offset from dstBase, charging one PageCopy per
// page; non-resident pages stay non-resident at the destination. A
// destination page faulted in here is not zeroed first, since the copy
// overwrites all of it, and has no pre-image to save. Each copy takes its
// source's stamp and remembers its source, whose pointer candidates it can
// then share. It walks src's page table, so it costs O(src's slots) plus
// one region lookup per resident page. Must be called with the write lock
// held.
func (as *AddressSpace) copyResidentLocked(src *mapping, dstBase Addr) error {
	copied := clock.Cycles(0)
	for j, pg := range src.pages {
		if pg == nil {
			continue
		}
		dst := dstBase + Addr(j)*PageSize
		m := as.mappingAtLocked(dst)
		if m == nil {
			return &FaultError{Kind: FaultUnmapped, Addr: dst, Access: mpk.Read}
		}
		i := m.slot(dst)
		npg := m.pages[i]
		if npg == nil {
			npg = as.takePageLocked(false)
			m.pages[i] = npg
		} else {
			as.cowSaveLocked(dst.PageBase(), npg, true)
		}
		npg.data = pg.data
		npg.stamp, npg.src = pg.stamp, pg
		if pg.taint != nil {
			npg.taint = append([]byte(nil), pg.taint...)
		}
		copied++
	}
	as.charge(as.costs.PageCopy*copied, true)
	return nil
}
