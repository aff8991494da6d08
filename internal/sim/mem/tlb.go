package mem

// TLB is one simulated thread's translation cache: its most recent
// translations from a page base to the resident page and the region that
// maps it. A hit skips the region binary search and the page-map lookup;
// the permission and key checks and the copy still run under the address
// space's lock, so a cached access is ordered against concurrent stores,
// snapshots and restores exactly as an uncached one is.
//
// The entries are stamped with the address space and its generation, and
// are consulted only while both match. Every change to the region table or
// the page set bumps the generation under the write lock (Map, Unmap,
// SetRegionPerm, SetRegionKey and Restore), except a fault-in, which only
// adds a page and so cannot make a cached translation wrong. Unmap and
// Restore are also the only paths that release pages for reuse, so an
// entry never outlives its page's place in a table.
//
// A TLB belongs to one thread and is only touched from that thread's
// goroutine. The zero value is an empty cache.
type TLB struct {
	as      *AddressSpace
	gen     uint64
	next    int // the entry the next fill replaces, round robin
	entries [tlbEntries]tlbEntry
}

// tlbEntries is the TLB's size. A thread alternates between a few pages:
// its stack, the string it scans, the buffer it fills. On the nginx
// workloads four entries hit on 99% of thread accesses, one entry on 72%.
const tlbEntries = 4

// tlbEntry maps one page base to its page and the mapping that holds it;
// pg is nil while the entry is empty.
type tlbEntry struct {
	base Addr
	pg   *page
	m    *mapping
}

// bumpLocked invalidates every TLB entry for the address space. Must be
// called with the write lock held.
func (as *AddressSpace) bumpLocked() { as.gen++ }

// translateLocked returns the mapping containing a (nil when unmapped) and
// its resident page (nil until faulted in), from tlb when it holds the
// page and refilling it otherwise: a region binary search plus an index
// into the region's table. tlb may be nil. Must be called with as.mu held.
func (as *AddressSpace) translateLocked(a Addr, tlb *TLB) (*mapping, *page) {
	base := a.PageBase()
	if tlb != nil {
		if tlb.as != as || tlb.gen != as.gen {
			*tlb = TLB{as: as, gen: as.gen}
		}
		for i := range tlb.entries {
			if e := &tlb.entries[i]; e.pg != nil && e.base == base {
				return e.m, e.pg
			}
		}
	}
	m := as.mappingAtLocked(a)
	if m == nil {
		return nil, nil
	}
	pg := m.pages[m.slot(a)]
	if tlb != nil && pg != nil {
		tlb.entries[tlb.next] = tlbEntry{base: base, pg: pg, m: m}
		tlb.next = (tlb.next + 1) % tlbEntries
	}
	return m, pg
}
