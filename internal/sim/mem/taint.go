package mem

import "smvx/internal/sim/mpk"

// Taint is a per-byte taint tag bitmask. The taint engine marks network
// input with TaintNetwork at the recv/read boundary (the taint source) and
// the machine propagates tags through loads, stores, and copies, mirroring
// libdft's byte-granularity data-flow tracking (Section 3.2).
type Taint uint8

// Taint tags.
const (
	// TaintNone marks untainted data.
	TaintNone Taint = 0
	// TaintNetwork marks bytes derived from network input.
	TaintNetwork Taint = 1 << iota
	// TaintFile marks bytes derived from file input.
	TaintFile
)

// SetTaint tags n bytes starting at a. It is a no-op unless taint tracking
// is enabled. Unmapped bytes in the range are an error.
func (as *AddressSpace) SetTaint(a Addr, n int, t Taint) error {
	if !as.TaintEnabled() {
		return nil
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	for off := 0; off < n; {
		addr := a + Addr(off)
		pg, err := as.residentLocked(addr, mpk.Read)
		if err != nil {
			return err
		}
		as.cowSaveLocked(addr.PageBase(), pg, true)
		if pg.taint == nil {
			pg.taint = make([]byte, PageSize)
		}
		for po := int(addr & (PageSize - 1)); po < PageSize && off < n; po++ {
			if t == TaintNone {
				pg.taint[po] = 0
			} else {
				pg.taint[po] |= byte(t)
			}
			off++
		}
	}
	return nil
}

// TaintOf returns the union of the taint tags on n bytes at a. Unmapped or
// non-resident bytes contribute no taint.
func (as *AddressSpace) TaintOf(a Addr, n int) Taint {
	if !as.TaintEnabled() {
		return TaintNone
	}
	var t Taint
	as.mu.RLock()
	defer as.mu.RUnlock()
	for off := 0; off < n; {
		_, pg := as.translateLocked(a+Addr(off), nil)
		po := int((a + Addr(off)) & (PageSize - 1))
		if pg != nil && pg.taint != nil {
			for po < PageSize && off < n {
				t |= Taint(pg.taint[po])
				po++
				off++
			}
		} else {
			off += PageSize - po
		}
	}
	return t
}

// CopyTaint propagates taint tags for an n-byte copy from src to dst,
// as a tainted memcpy does in libdft.
func (as *AddressSpace) CopyTaint(dst, src Addr, n int) error {
	if !as.TaintEnabled() {
		return nil
	}
	// Byte-at-a-time is fine: taint pages are sparse and copies are short.
	for i := 0; i < n; i++ {
		t := as.TaintOf(src+Addr(i), 1)
		if err := as.SetTaint(dst+Addr(i), 1, t); err != nil {
			return err
		}
	}
	return nil
}

// TaintedBytesIn counts tainted resident bytes within [start, end).
func (as *AddressSpace) TaintedBytesIn(start, end Addr) int {
	if !as.TaintEnabled() {
		return 0
	}
	as.mu.RLock()
	defer as.mu.RUnlock()
	n := 0
	for _, m := range as.maps {
		if m.End() <= start || m.Base >= end {
			continue
		}
		for j, pg := range m.pages {
			if pg == nil || pg.taint == nil {
				continue
			}
			base := m.Base + Addr(j)*PageSize
			for i, tag := range pg.taint {
				if a := base + Addr(i); a >= start && a < end && tag != 0 {
					n++
				}
			}
		}
	}
	return n
}
