// Package mem simulates a paged 48-bit process address space.
//
// The address space is the substrate everything else stands on: program
// images are mapped into it as regions (.text, .data, .bss, heap, stack, …),
// the execution engine keeps its call stacks in it (so a buffer overflow can
// really overwrite return addresses), the sMVX monitor clones shifted copies
// of regions into it to build the follower variant's non-overlapping layout,
// and the taint engine stores per-byte tags in it.
//
// Pages are allocated lazily on first touch, which gives a meaningful
// resident-set-size (RSS) metric for the paper's memory-consumption
// experiment (Section 4.1).
package mem

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"smvx/internal/sim/clock"
	"smvx/internal/sim/mpk"
)

// PageSize is the size of one page, 4KiB as on x86-64.
const PageSize = 4096

// PointerAlign is the alignment of pointers on x86-64; the pointer scanner
// visits only PointerAlign-aligned slots (Section 3.4).
const PointerAlign = 8

// Addr is a simulated virtual address.
type Addr uint64

// PageBase returns the base address of the page containing a.
func (a Addr) PageBase() Addr { return a &^ (PageSize - 1) }

// String formats the address in the conventional hex form.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Perm is a page permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Common permission combinations.
const (
	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

// String renders the permission mask in rwx form.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// allows reports whether the permission mask admits the access kind.
func (p Perm) allows(a mpk.Access) bool {
	switch a {
	case mpk.Read:
		return p&PermRead != 0
	case mpk.Write:
		return p&PermWrite != 0
	case mpk.Execute:
		return p&PermExec != 0
	default:
		return false
	}
}

// Region is a contiguous mapped range with uniform permissions and a
// protection key.
type Region struct {
	// Name identifies the region (".text", "heap", "stack:tid", …).
	Name string
	// Base is the first address of the region (page-aligned).
	Base Addr
	// Size is the region length in bytes (multiple of PageSize).
	Size uint64
	// Perm is the page-permission mask.
	Perm Perm
	// Key is the MPK protection key attached to the region's pages.
	Key mpk.Key
}

// End returns the first address past the region.
func (r *Region) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether a falls inside the region.
func (r *Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// FaultKind classifies a memory fault.
type FaultKind int

// Fault kinds.
const (
	// FaultUnmapped is an access to an address with no mapped region —
	// the signal the follower variant raises when an exploit jumps to a
	// leader-layout gadget address.
	FaultUnmapped FaultKind = iota + 1
	// FaultPerm is a page-permission violation (e.g. writing .text).
	FaultPerm
	// FaultPkey is an MPK violation: the thread's PKRU disables the
	// region's protection key for this access.
	FaultPkey
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "unmapped"
	case FaultPerm:
		return "permission"
	case FaultPkey:
		return "pkey"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultError is the simulated equivalent of SIGSEGV: a memory access the
// MMU (or the protection-key unit) refused.
type FaultError struct {
	// Kind classifies the fault.
	Kind FaultKind
	// Addr is the faulting address.
	Addr Addr
	// Access is the operation that faulted.
	Access mpk.Access
	// Region names the region hit, if any.
	Region string
}

// Error implements the error interface.
func (e *FaultError) Error() string {
	if e.Region == "" {
		return fmt.Sprintf("segfault: %s %s at %s", e.Kind, e.Access, e.Addr)
	}
	return fmt.Sprintf("segfault: %s %s at %s (region %s)", e.Kind, e.Access, e.Addr, e.Region)
}

type page struct {
	data  [PageSize]byte
	taint []byte // lazily allocated; parallel per-byte taint tags

	// stamp names the page's contents. Every change to data takes a fresh
	// stamp from the address space, and a whole-page copy hands its
	// source's stamp to the copy, so two pages with one stamp hold the
	// same bytes. The pointer scan's cache is keyed on it (see scan.go).
	stamp uint64
	// src is the page this one was last copied from. Its candidate cache
	// serves this page for as long as it was built for this page's stamp.
	src *page
	// cands caches the page's pointer candidates for the contents stamped
	// cands.stamp.
	cands candidates
}

// mapping is one mapped region and its page table: one slot per page of the
// region, nil until that page is faulted in. The table lives beside the
// Region, not inside it, so Region stays a comparable value; a *Region the
// address space hands out points into its mapping.
type mapping struct {
	Region
	pages []*page
}

// slot returns the index in m's table of the page holding a, which must lie
// in m.
func (m *mapping) slot(a Addr) int { return int((a - m.Base) / PageSize) }

// AddressSpace is a simulated virtual address space.
//
// It is safe for concurrent use by multiple simulated threads. The sMVX
// leader and follower variants share one AddressSpace (the follower is a
// thread) but operate on non-overlapping regions.
type AddressSpace struct {
	mu   sync.RWMutex
	maps []*mapping // sorted by Base

	// resident counts the pages faulted in across every table.
	resident int
	// free holds the pages Unmap and Restore released; the next fault-in
	// takes one instead of allocating, zeroed unless all of it is about to
	// be overwritten. Page pointers are therefore only dereferenced under
	// mu: once it is dropped a page may be recycled into another region.
	free []*page

	// gen stamps the region table and page set for the thread TLBs; see
	// bumpLocked.
	gen uint64

	// stamps numbers page contents (see page.stamp). scanRanges are the
	// value ranges the pages' candidate caches were built for, and
	// scanEpoch numbers the sets of ranges the scan has been given.
	stamps     uint64
	scanRanges []ValueRange
	scanEpoch  uint64

	counter *clock.Counter
	wall    *clock.Counter
	costs   clock.CostTable

	// taintEnabled is written under the write lock and read without it, so
	// the taint paths cost one atomic load while tracking is off.
	taintEnabled atomic.Bool

	// snap is the active copy-on-write snapshot (nil when none); snapGen
	// numbers captures. See snapshot.go.
	snap    *Snapshot
	snapGen uint64
}

// SetWallCounter attaches a second counter that models elapsed (wall-clock)
// time as opposed to total CPU consumption; address-space work is charged
// to both.
func (as *AddressSpace) SetWallCounter(c *clock.Counter) {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.wall = c
}

// GetWallCounter returns the attached wall counter (nil if none) — callers
// that move work off the critical path (the monitor's pre-scan) detach and
// restore it around the background phase.
func (as *AddressSpace) GetWallCounter() *clock.Counter {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.wall
}

// NewAddressSpace returns an empty address space charging cycle costs to
// counter (which may be nil to disable accounting).
func NewAddressSpace(counter *clock.Counter, costs clock.CostTable) *AddressSpace {
	return &AddressSpace{counter: counter, costs: costs}
}

// charge adds n cycles to the counter(s) if accounting is enabled. wall
// selects whether the work lands on the elapsed-time counter too (false
// for background/follower thread accesses, which run on a spare core).
func (as *AddressSpace) charge(n clock.Cycles, wall bool) {
	if as.counter != nil {
		as.counter.Charge(n)
	}
	if wall && as.wall != nil {
		as.wall.Charge(n)
	}
}

// EnableTaint switches on per-byte taint tracking for subsequently touched
// pages.
func (as *AddressSpace) EnableTaint() {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.taintEnabled.Store(true)
}

// TaintEnabled reports whether taint tracking is on.
func (as *AddressSpace) TaintEnabled() bool { return as.taintEnabled.Load() }

// Map adds a region to the address space. The base and size are rounded out
// to page boundaries. Overlap with an existing region is an error.
func (as *AddressSpace) Map(r Region) (*Region, error) {
	if r.Size == 0 {
		return nil, fmt.Errorf("mem: map %q: zero size", r.Name)
	}
	r.Base = r.Base.PageBase()
	r.Size = (r.Size + PageSize - 1) &^ (PageSize - 1)

	as.mu.Lock()
	defer as.mu.Unlock()
	return as.mapLocked(r)
}

// mapLocked inserts the page-rounded region r at its sorted position. Must
// be called with the write lock held.
func (as *AddressSpace) mapLocked(r Region) (*Region, error) {
	i := sort.Search(len(as.maps), func(i int) bool { return as.maps[i].Base >= r.Base })
	// Only the neighbours of the insertion point can overlap; the lower one
	// is reported first, as a scan in address order would.
	for _, j := range [2]int{i - 1, i} {
		if j < 0 || j >= len(as.maps) {
			continue
		}
		if existing := as.maps[j]; r.Base < existing.End() && existing.Base < r.Base+Addr(r.Size) {
			return nil, fmt.Errorf("mem: map %q at %s: overlaps region %q", r.Name, r.Base, existing.Name)
		}
	}
	m := &mapping{Region: r, pages: make([]*page, r.Size/PageSize)}
	as.maps = slices.Insert(as.maps, i, m)
	as.bumpLocked()
	return &m.Region, nil
}

// Unmap removes the region containing base and releases its resident pages
// to the free list.
func (as *AddressSpace) Unmap(base Addr) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	i := as.regionIndexLocked(base)
	if i < 0 {
		return fmt.Errorf("mem: unmap %s: no region at that base", base)
	}
	m := as.maps[i]
	for j, pg := range m.pages {
		if pg != nil {
			// Unmapping destroys page contents; preserve pre-images so a
			// checkpoint restore can resurrect the region.
			as.cowSaveLocked(m.Base+Addr(j)*PageSize, pg, true)
			as.releaseLocked(pg)
		}
	}
	m.pages = nil
	as.maps = slices.Delete(as.maps, i, i+1)
	as.bumpLocked()
	return nil
}

// RegionAt returns the region containing a, or nil.
func (as *AddressSpace) RegionAt(a Addr) *Region {
	as.mu.RLock()
	defer as.mu.RUnlock()
	if m := as.mappingAtLocked(a); m != nil {
		return &m.Region
	}
	return nil
}

// mappingAtLocked returns the mapping containing a, or nil.
func (as *AddressSpace) mappingAtLocked(a Addr) *mapping {
	i := sort.Search(len(as.maps), func(i int) bool { return as.maps[i].End() > a })
	if i < len(as.maps) && as.maps[i].Contains(a) {
		return as.maps[i]
	}
	return nil
}

// regionIndexLocked returns the index of the region based exactly at base,
// or -1.
func (as *AddressSpace) regionIndexLocked(base Addr) int {
	i := sort.Search(len(as.maps), func(i int) bool { return as.maps[i].Base >= base })
	if i < len(as.maps) && as.maps[i].Base == base {
		return i
	}
	return -1
}

// RegionByName returns the first region with the given name, or nil.
func (as *AddressSpace) RegionByName(name string) *Region {
	as.mu.RLock()
	defer as.mu.RUnlock()
	for _, m := range as.maps {
		if m.Name == name {
			return &m.Region
		}
	}
	return nil
}

// Regions returns a snapshot of all mapped regions, sorted by base address.
func (as *AddressSpace) Regions() []Region {
	as.mu.RLock()
	defer as.mu.RUnlock()
	out := make([]Region, len(as.maps))
	for i, m := range as.maps {
		out[i] = m.Region
	}
	return out
}

// SetRegionPerm updates the permission mask of the region based at base.
// The monitor uses it to flip trampoline pages to execute-only.
func (as *AddressSpace) SetRegionPerm(base Addr, p Perm) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	i := as.regionIndexLocked(base)
	if i < 0 {
		return fmt.Errorf("mem: set perm at %s: no region", base)
	}
	as.maps[i].Perm = p
	as.bumpLocked()
	return nil
}

// SetRegionKey attaches protection key k to the region based at base,
// mirroring pkey_mprotect(2).
func (as *AddressSpace) SetRegionKey(base Addr, k mpk.Key) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	i := as.regionIndexLocked(base)
	if i < 0 {
		return fmt.Errorf("mem: set pkey at %s: no region", base)
	}
	as.maps[i].Key = k
	as.bumpLocked()
	return nil
}

// permit validates an access of kind op at a, which lies in m (nil when
// unmapped), against the region's permission mask and, when pkru is
// non-nil, against the thread's protection-key rights.
func permit(m *mapping, a Addr, op mpk.Access, pkru *mpk.PKRU) error {
	if m == nil {
		return &FaultError{Kind: FaultUnmapped, Addr: a, Access: op}
	}
	if !m.Perm.allows(op) {
		return &FaultError{Kind: FaultPerm, Addr: a, Access: op, Region: m.Name}
	}
	if pkru != nil && !pkru.Check(m.Key, op) {
		return &FaultError{Kind: FaultPkey, Addr: a, Access: op, Region: m.Name}
	}
	return nil
}

// checkLocked validates an access of n > 0 bytes at a: the first byte's
// region, then the last byte's when it lies on another page (regions are
// page-aligned with uniform permissions, so the two ends cover the span).
// It returns the first byte's page, nil while that page is not resident.
// Must be called with as.mu held.
func (as *AddressSpace) checkLocked(a Addr, n int, op mpk.Access, pkru *mpk.PKRU, tlb *TLB) (*page, error) {
	m, pg := as.translateLocked(a, tlb)
	if err := permit(m, a, op, pkru); err != nil {
		return nil, err
	}
	if last := a + Addr(n-1); last.PageBase() != a.PageBase() {
		if err := permit(as.mappingAtLocked(last), last, op, pkru); err != nil {
			return nil, err
		}
	}
	return pg, nil
}

// residentLocked returns the page containing a, faulting it in if the
// address is mapped. Must be called with the write lock held.
func (as *AddressSpace) residentLocked(a Addr, op mpk.Access) (*page, error) {
	m := as.mappingAtLocked(a)
	if m == nil {
		return nil, &FaultError{Kind: FaultUnmapped, Addr: a, Access: op}
	}
	i := m.slot(a)
	if m.pages[i] == nil {
		m.pages[i] = as.takePageLocked(true)
	}
	return m.pages[i], nil
}

// takePageLocked returns an untainted page for a fault-in, reusing a
// released one when the free list has it, and counts it resident. A
// recycled page is zeroed only when zero is set: a caller that overwrites
// all of the page's bytes next passes false. Must be called with the write
// lock held.
func (as *AddressSpace) takePageLocked(zero bool) *page {
	var pg *page
	if n := len(as.free); n > 0 {
		pg = as.free[n-1]
		as.free[n-1] = nil
		as.free = as.free[:n-1]
		if zero {
			pg.data = [PageSize]byte{}
		}
	} else {
		pg = &page{}
	}
	as.stampLocked(pg)
	switch {
	case !as.taintEnabled.Load():
		pg.taint = nil
	case pg.taint == nil:
		pg.taint = make([]byte, PageSize)
	default:
		clear(pg.taint)
	}
	as.resident++
	return pg
}

// stampLocked gives pg's contents a fresh stamp after its bytes changed.
// Must be called with the write lock held.
func (as *AddressSpace) stampLocked(pg *page) {
	as.stamps++
	pg.stamp = as.stamps
}

// releaseLocked puts a page its table no longer holds on the free list.
// Must be called with the write lock held.
func (as *AddressSpace) releaseLocked(pg *page) {
	as.resident--
	as.free = append(as.free, pg)
}

// errNotResident stops a load or fetch running under the read lock at a
// page that must be faulted in first, which takes the write lock.
var errNotResident = errors.New("mem: page not resident")

// access is the one path every load, store and instruction fetch takes. It
// runs in one lock section: the region lookup, the permission and key
// checks, the charge, the page lookup or fault-in, and the copy. A store
// holds the write lock throughout, so the copy-on-write barrier saves each
// pre-image atomically with its mutation and a concurrent Snapshot or
// Restore sees the whole store or none of it. A load or fetch holds the
// read lock; if it reaches a page that is not resident it starts over
// under the write lock, repeating the checks, and is charged once, by
// whichever pass completes. tlb, when non-nil, is the issuing thread's
// translation cache.
func (as *AddressSpace) access(a Addr, buf []byte, op mpk.Access, pkru *mpk.PKRU, tlb *TLB, wall bool) error {
	if op == mpk.Write {
		as.mu.Lock()
		defer as.mu.Unlock()
		return as.accessLocked(a, buf, op, pkru, tlb, wall, true)
	}
	as.mu.RLock()
	err := as.accessLocked(a, buf, op, pkru, tlb, wall, false)
	as.mu.RUnlock()
	if err != errNotResident {
		return err
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.accessLocked(a, buf, op, pkru, tlb, wall, true)
}

// accessLocked performs access with as.mu held; exclusive says it is the
// write lock. A fetch costs one MemAccess; a load or store costs one more
// per 64 bytes, and an empty one is charged without being checked.
func (as *AddressSpace) accessLocked(a Addr, buf []byte, op mpk.Access, pkru *mpk.PKRU, tlb *TLB, wall, exclusive bool) error {
	cost := as.costs.MemAccess
	if op != mpk.Execute {
		cost *= clock.Cycles(1 + len(buf)/64)
	}
	if len(buf) == 0 {
		as.charge(cost, wall)
		return nil
	}
	pg, err := as.checkLocked(a, len(buf), op, pkru, tlb)
	if err != nil {
		return err
	}
	if exclusive {
		as.charge(cost, wall)
	}
	for off := 0; off < len(buf); {
		addr := a + Addr(off)
		if off > 0 {
			_, pg = as.translateLocked(addr, nil)
		}
		if pg == nil {
			if !exclusive {
				return errNotResident
			}
			if pg, err = as.residentLocked(addr, op); err != nil {
				return err
			}
		}
		po := int(addr & (PageSize - 1))
		if op == mpk.Write {
			as.cowSaveLocked(addr.PageBase(), pg, wall)
			off += copy(pg.data[po:], buf[off:])
			as.stampLocked(pg)
		} else {
			off += copy(buf[off:], pg.data[po:])
		}
	}
	if !exclusive {
		as.charge(cost, wall)
	}
	return nil
}

// ReadAt copies len(buf) bytes from address a into buf using monitor
// privileges (page permissions enforced, protection keys bypassed).
func (as *AddressSpace) ReadAt(a Addr, buf []byte) error {
	return as.access(a, buf, mpk.Read, nil, nil, true)
}

// CheckedReadAt is ReadAt with the thread's PKRU enforced.
func (as *AddressSpace) CheckedReadAt(a Addr, buf []byte, pkru mpk.PKRU) error {
	return as.access(a, buf, mpk.Read, &pkru, nil, true)
}

// ThreadReadAt is the form of CheckedReadAt a simulated thread uses: tlb is
// the thread's translation cache, and wall is false for a background
// thread, whose work counts toward CPU consumption but not wall time.
func (as *AddressSpace) ThreadReadAt(tlb *TLB, a Addr, buf []byte, pkru mpk.PKRU, wall bool) error {
	return as.access(a, buf, mpk.Read, &pkru, tlb, wall)
}

// ThreadAppendCString appends to dst the NUL-terminated string at a, reading
// at most max bytes, as a simulated thread's loop of one-byte loads does:
// each byte read, the NUL included, is charged one MemAccess, and the first
// byte the thread may not load ends the read with its fault, charging only
// the bytes before it. It runs one lock section per page, with access's
// retry: a page found not resident under the read lock is faulted in under
// the write lock. It returns dst with the string (not its NUL) appended,
// the number of bytes read, and the union of their taint tags. tlb and wall
// are as for ThreadReadAt.
func (as *AddressSpace) ThreadAppendCString(tlb *TLB, dst []byte, a Addr, max int, pkru mpk.PKRU, wall bool) ([]byte, int, Taint, error) {
	r := cstringRead{dst: dst}
	for r.n < max && !r.nul {
		as.mu.RLock()
		next, err := as.cstringPageLocked(r, tlb, a, max, &pkru, wall, false)
		as.mu.RUnlock()
		if err == errNotResident {
			as.mu.Lock()
			next, err = as.cstringPageLocked(r, tlb, a, max, &pkru, wall, true)
			as.mu.Unlock()
		}
		if err != nil {
			return r.dst, r.n, r.tag, err
		}
		r = next
	}
	return r.dst, r.n, r.tag, nil
}

// cstringRead is the state of one C-string read. It is passed and returned
// by value, so the caller's buffer can stay on its stack.
type cstringRead struct {
	dst []byte // the caller's buffer with the string bytes read so far
	n   int    // bytes read, the NUL included
	tag Taint  // union of their taint tags
	nul bool   // the NUL has been read
}

// cstringPageLocked continues r, a read of at most max bytes of the string
// at a, on the page holding its next byte: it checks and faults in that
// page as a one-byte load does, then reads to the page end, to max bytes or
// through a NUL, and charges what it read. Must be called with as.mu held;
// exclusive says it is the write lock.
func (as *AddressSpace) cstringPageLocked(r cstringRead, tlb *TLB, a Addr, max int, pkru *mpk.PKRU, wall, exclusive bool) (cstringRead, error) {
	a += Addr(r.n)
	m, pg := as.translateLocked(a, tlb)
	if err := permit(m, a, mpk.Read, pkru); err != nil {
		return r, err
	}
	if pg == nil {
		if !exclusive {
			return r, errNotResident
		}
		var err error
		if pg, err = as.residentLocked(a, mpk.Read); err != nil {
			return r, err
		}
	}
	po := int(a & (PageSize - 1))
	span := pg.data[po:]
	if rest := max - r.n; rest < len(span) {
		span = span[:rest]
	}
	n := len(span)
	if i := bytes.IndexByte(span, 0); i >= 0 {
		span, n, r.nul = span[:i], i+1, true
	}
	r.dst = append(r.dst, span...)
	if pg.taint != nil && as.taintEnabled.Load() {
		for _, t := range pg.taint[po : po+n] {
			r.tag |= Taint(t)
		}
	}
	r.n += n
	as.charge(as.costs.MemAccess*clock.Cycles(n), wall)
	return r, nil
}

// WriteAt copies buf to address a using monitor privileges.
func (as *AddressSpace) WriteAt(a Addr, buf []byte) error {
	return as.access(a, buf, mpk.Write, nil, nil, true)
}

// CheckedWriteAt is WriteAt with the thread's PKRU enforced.
func (as *AddressSpace) CheckedWriteAt(a Addr, buf []byte, pkru mpk.PKRU) error {
	return as.access(a, buf, mpk.Write, &pkru, nil, true)
}

// ThreadWriteAt is the form of CheckedWriteAt a simulated thread uses, with
// the thread's translation cache (see ThreadReadAt).
func (as *AddressSpace) ThreadWriteAt(tlb *TLB, a Addr, buf []byte, pkru mpk.PKRU, wall bool) error {
	return as.access(a, buf, mpk.Write, &pkru, tlb, wall)
}

// Read64 loads a little-endian 64-bit word.
func (as *AddressSpace) Read64(a Addr) (uint64, error) {
	var b [8]byte
	if err := as.ReadAt(a, b[:]); err != nil {
		return 0, err
	}
	return le64(b[:]), nil
}

// Write64 stores a little-endian 64-bit word.
func (as *AddressSpace) Write64(a Addr, v uint64) error {
	var b [8]byte
	put64(b[:], v)
	return as.WriteAt(a, b[:])
}

// CheckExec validates an instruction fetch at a (page permissions only;
// protection keys never block execution — XoM semantics). It neither
// charges nor faults the page in.
func (as *AddressSpace) CheckExec(a Addr) error {
	as.mu.RLock()
	defer as.mu.RUnlock()
	_, err := as.checkLocked(a, 1, mpk.Execute, nil, nil)
	return err
}

// FetchCode reads len(buf) instruction bytes at a the way the CPU's fetch
// unit does: the pages must be executable, but read permission and
// protection keys are irrelevant — execute-only memory can be fetched but
// not ReadAt. The gadget interpreter uses this to "run" bytes it could
// never disclose.
func (as *AddressSpace) FetchCode(a Addr, buf []byte) error {
	return as.access(a, buf, mpk.Execute, nil, nil, true)
}

// ResidentPages returns the number of faulted-in pages: the simulated RSS
// in pages.
func (as *AddressSpace) ResidentPages() int {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.resident
}

// ResidentKB returns the simulated resident set size in KiB, the quantity
// the paper measures with pmap (Section 4.1).
func (as *AddressSpace) ResidentKB() int {
	return as.ResidentPages() * PageSize / 1024
}

// ResidentKBIn returns the RSS in KiB restricted to regions whose names
// satisfy keep. keep runs after the lock is released.
func (as *AddressSpace) ResidentKBIn(keep func(region string) bool) int {
	type count struct {
		region string
		pages  int
	}
	as.mu.RLock()
	counts := make([]count, len(as.maps))
	for i, m := range as.maps {
		counts[i].region = m.Name
		for _, pg := range m.pages {
			if pg != nil {
				counts[i].pages++
			}
		}
	}
	as.mu.RUnlock()
	n := 0
	for _, c := range counts {
		if keep(c.region) {
			n += c.pages
		}
	}
	return n * PageSize / 1024
}

// Touch faults in every page of the region based at base, as a loader
// populating an image does.
func (as *AddressSpace) Touch(base Addr, size uint64) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for a := base.PageBase(); a < base+Addr(size); a += PageSize {
		if _, err := as.residentLocked(a, mpk.Read); err != nil {
			return err
		}
	}
	return nil
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func put64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
