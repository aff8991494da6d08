package mem

import (
	"fmt"
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

// ScanPointers walks every 8-byte-aligned slot in [start, end) and returns
// the slots whose value satisfies looksLikePointer. This is the paper's
// strawman pointer-identification approach (Section 3.4): pointers are
// 8-byte aligned on x86-64, and candidate values are validated against the
// known code/data address ranges. Each visited slot is charged
// CostTable.ScanPerSlot cycles — the dominant cost in Table 2.
//
// Only resident pages are scanned: non-resident pages are known-zero and
// cannot hold pointers. Each page is copied out under the read lock, since
// once the lock is dropped it may be unmapped and recycled; the predicate
// runs on the copy, outside the lock.
func (as *AddressSpace) ScanPointers(start, end Addr, looksLikePointer func(Addr) bool) []PointerHit {
	start = (start + PointerAlign - 1) &^ (PointerAlign - 1)
	var hits []PointerHit
	var data [PageSize]byte
	slots := clock.Cycles(0)
	for next := start.PageBase(); next < end; {
		as.mu.RLock()
		pageBase, ok := as.nextResidentLocked(next, end, &data)
		as.mu.RUnlock()
		if !ok {
			break
		}
		next = pageBase + PageSize
		lo := pageBase
		if lo < start {
			lo = start
		}
		hi := pageBase + PageSize
		if hi > end {
			hi = end
		}
		for a := lo; a+PointerAlign <= hi; a += PointerAlign {
			slots++
			v := Addr(le64(data[a-pageBase : a-pageBase+8]))
			if v != 0 && looksLikePointer(v) {
				hits = append(hits, PointerHit{Slot: a, Value: v})
			}
		}
	}
	as.charge(as.costs.ScanPerSlot*slots, true)
	return hits
}

// nextResidentLocked finds the first resident page based in [from, end),
// walking the page tables of the regions that overlap the range, and
// copies its contents into data. from must be page-aligned. Must be called
// with as.mu held.
func (as *AddressSpace) nextResidentLocked(from, end Addr, data *[PageSize]byte) (Addr, bool) {
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
				*data = pg.data
				return base, true
			}
		}
	}
	return 0, false
}

// RelocatePointers rewrites every slot found by ScanPointers in
// [start, end) whose value falls in [oldBase, oldBase+size) by adding
// delta, returning the number of slots patched. This implements the
// pointer-relocation step of follower-variant creation (Section 3.4).
func (as *AddressSpace) RelocatePointers(start, end, oldBase Addr, size uint64, delta int64) (int, error) {
	hits := as.ScanPointers(start, end, func(v Addr) bool {
		return v >= oldBase && v < oldBase+Addr(size)
	})
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
// page; non-resident pages stay non-resident at the destination. It walks
// src's page table, so it costs O(src's slots) plus one region lookup per
// resident page. Must be called with the write lock held.
func (as *AddressSpace) copyResidentLocked(src *mapping, dstBase Addr) error {
	copied := clock.Cycles(0)
	for j, pg := range src.pages {
		if pg == nil {
			continue
		}
		dst := dstBase + Addr(j)*PageSize
		npg, err := as.residentLocked(dst, mpk.Read)
		if err != nil {
			return err
		}
		as.cowSaveLocked(dst.PageBase(), npg, true)
		npg.data = pg.data
		if pg.taint != nil {
			npg.taint = append([]byte(nil), pg.taint...)
		}
		copied++
	}
	as.charge(as.costs.PageCopy*copied, true)
	return nil
}
