package mem

import (
	"sync"
	"testing"

	"smvx/internal/sim/clock"
)

func TestScanPointersFindsAlignedSlots(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: ".data", Base: 0x600000, Size: PageSize, Perm: PermRW})
	textBase, textEnd := Addr(0x400000), Addr(0x402000)

	// Plant two pointers into .text, one non-pointer value, and one
	// pointer-looking value at an unaligned offset (must be missed:
	// pointers are 8-byte aligned on x86-64).
	if err := as.Write64(0x600008, 0x400100); err != nil {
		t.Fatal(err)
	}
	if err := as.Write64(0x600040, 0x401ff8); err != nil {
		t.Fatal(err)
	}
	if err := as.Write64(0x600080, 0x12345); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteAt(0x600091, []byte{0x00, 0x02, 0x40, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}

	hits := as.ScanPointers(0x600000, 0x601000, []ValueRange{{Lo: textBase, Hi: textEnd}}, nil)
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want 2: %v", len(hits), hits)
	}
	if hits[0].Slot != 0x600008 || hits[0].Value != 0x400100 {
		t.Errorf("hit[0] = %+v", hits[0])
	}
	if hits[1].Slot != 0x600040 || hits[1].Value != 0x401ff8 {
		t.Errorf("hit[1] = %+v", hits[1])
	}
}

func TestScanPointersSkipsNonResident(t *testing.T) {
	ctr := clock.NewCounter()
	as := NewAddressSpace(ctr, clock.DefaultCosts())
	if _, err := as.Map(Region{Name: "heap", Base: 0x100000, Size: 256 * PageSize, Perm: PermRW}); err != nil {
		t.Fatal(err)
	}
	_ = as.Write64(0x100000, 0x400000) // touch exactly one page
	before := ctr.Cycles()
	hits := as.ScanPointers(0x100000, 0x100000+256*PageSize, []ValueRange{{Lo: 0x400000, Hi: 0x400001}}, nil)
	cost := ctr.Cycles() - before
	if len(hits) != 1 {
		t.Fatalf("hits = %d, want 1", len(hits))
	}
	// Only one resident page of slots should have been charged.
	maxCost := clock.DefaultCosts().ScanPerSlot * clock.Cycles(PageSize/PointerAlign)
	if cost > maxCost {
		t.Errorf("scan cost %d cycles, want <= %d (resident pages only)", cost, maxCost)
	}
}

func TestScanCostScalesWithResidency(t *testing.T) {
	ctr := clock.NewCounter()
	as := NewAddressSpace(ctr, clock.DefaultCosts())
	if _, err := as.Map(Region{Name: "heap", Base: 0x100000, Size: 64 * PageSize, Perm: PermRW}); err != nil {
		t.Fatal(err)
	}
	_ = as.Touch(0x100000, 4*PageSize)
	before := ctr.Cycles()
	as.ScanPointers(0x100000, 0x100000+64*PageSize, nil, nil)
	cost4 := ctr.Cycles() - before

	_ = as.Touch(0x100000, 32*PageSize)
	before = ctr.Cycles()
	as.ScanPointers(0x100000, 0x100000+64*PageSize, nil, nil)
	cost32 := ctr.Cycles() - before

	if cost32 <= cost4*6 {
		t.Errorf("scan cost should scale ~linearly with residency: 4 pages=%d, 32 pages=%d", cost4, cost32)
	}
}

func TestRelocatePointers(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: ".data", Base: 0x600000, Size: PageSize, Perm: PermRW})
	// Two pointers into old .text at 0x400000..0x402000, one unrelated.
	_ = as.Write64(0x600000, 0x400500)
	_ = as.Write64(0x600010, 0x401000)
	_ = as.Write64(0x600020, 0x999999)

	const delta = int64(0x10000000)
	n, err := as.RelocatePointers(0x600000, 0x601000, 0x400000, 0x2000, delta)
	if err != nil {
		t.Fatalf("RelocatePointers: %v", err)
	}
	if n != 2 {
		t.Errorf("relocated %d slots, want 2", n)
	}
	v, _ := as.Read64(0x600000)
	if v != 0x400500+uint64(delta) {
		t.Errorf("slot 0 = %#x, want %#x", v, 0x400500+uint64(delta))
	}
	v, _ = as.Read64(0x600020)
	if v != 0x999999 {
		t.Errorf("unrelated slot modified: %#x", v)
	}
}

func TestCloneRegionShifted(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: ".data", Base: 0x600000, Size: 4 * PageSize, Perm: PermRW, Key: 1})
	payload := []byte("variant state")
	_ = as.WriteAt(0x600100, payload)
	_ = as.WriteAt(0x600000+2*PageSize, []byte{0xEE})

	const delta = int64(0x40000000)
	reg, err := as.CloneRegionShifted(0x600000, delta, ".data'")
	if err != nil {
		t.Fatalf("CloneRegionShifted: %v", err)
	}
	if reg.Base != Addr(0x600000+delta) || reg.Size != 4*PageSize || reg.Key != 1 {
		t.Errorf("cloned region = %+v", reg)
	}
	got := make([]byte, len(payload))
	if err := as.ReadAt(Addr(0x600100+delta), got); err != nil {
		t.Fatalf("read clone: %v", err)
	}
	if string(got) != string(payload) {
		t.Errorf("clone contents = %q, want %q", got, payload)
	}
	// Writing the clone must not affect the original.
	_ = as.WriteAt(Addr(0x600100+delta), []byte("XXXX"))
	orig := make([]byte, 4)
	_ = as.ReadAt(0x600100, orig)
	if string(orig) != "vari" {
		t.Errorf("original modified by clone write: %q", orig)
	}
	// Only resident pages are copied.
	if res := as.ResidentPages(); res != 4 { // 2 source + 2 cloned
		t.Errorf("ResidentPages = %d, want 4", res)
	}
}

func TestCloneRegionShiftedErrors(t *testing.T) {
	as := newTestSpace(t)
	if _, err := as.CloneRegionShifted(0xabc000, 0x1000, "x"); err == nil {
		t.Error("clone of missing region should fail")
	}
	mustMap(t, as, Region{Name: "a", Base: 0x1000, Size: PageSize, Perm: PermRW})
	if _, err := as.CloneRegionShifted(0x1000, 0, "b"); err == nil {
		t.Error("clone onto itself should fail (overlap)")
	}
}

func TestTaintRoundTrip(t *testing.T) {
	as := newTestSpace(t)
	as.EnableTaint()
	mustMap(t, as, Region{Name: "buf", Base: 0x10000, Size: 2 * PageSize, Perm: PermRW})

	if err := as.SetTaint(0x10010, 16, TaintNetwork); err != nil {
		t.Fatalf("SetTaint: %v", err)
	}
	if got := as.TaintOf(0x10010, 16); got != TaintNetwork {
		t.Errorf("TaintOf = %v, want TaintNetwork", got)
	}
	if got := as.TaintOf(0x10000, 8); got != TaintNone {
		t.Errorf("TaintOf untainted = %v, want TaintNone", got)
	}
	// Union across a partially tainted range.
	if got := as.TaintOf(0x10000, 32); got != TaintNetwork {
		t.Errorf("TaintOf mixed = %v, want TaintNetwork", got)
	}
	// Clearing.
	if err := as.SetTaint(0x10010, 16, TaintNone); err != nil {
		t.Fatal(err)
	}
	if got := as.TaintOf(0x10010, 16); got != TaintNone {
		t.Errorf("TaintOf after clear = %v", got)
	}
}

func TestTaintDisabledIsNoop(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "buf", Base: 0x10000, Size: PageSize, Perm: PermRW})
	if err := as.SetTaint(0x10000, 8, TaintNetwork); err != nil {
		t.Fatalf("SetTaint with taint disabled: %v", err)
	}
	if got := as.TaintOf(0x10000, 8); got != TaintNone {
		t.Errorf("TaintOf = %v, want TaintNone when disabled", got)
	}
}

func TestCopyTaintPropagates(t *testing.T) {
	as := newTestSpace(t)
	as.EnableTaint()
	mustMap(t, as, Region{Name: "buf", Base: 0x10000, Size: PageSize, Perm: PermRW})
	_ = as.SetTaint(0x10000, 4, TaintNetwork)
	if err := as.CopyTaint(0x10100, 0x10000, 8); err != nil {
		t.Fatalf("CopyTaint: %v", err)
	}
	if got := as.TaintOf(0x10100, 4); got != TaintNetwork {
		t.Errorf("dst[0:4] taint = %v, want TaintNetwork", got)
	}
	if got := as.TaintOf(0x10104, 4); got != TaintNone {
		t.Errorf("dst[4:8] taint = %v, want TaintNone", got)
	}
}

func TestTaintCrossesPageBoundary(t *testing.T) {
	as := newTestSpace(t)
	as.EnableTaint()
	mustMap(t, as, Region{Name: "buf", Base: 0x10000, Size: 2 * PageSize, Perm: PermRW})
	start := Addr(0x10000 + PageSize - 4)
	if err := as.SetTaint(start, 8, TaintFile); err != nil {
		t.Fatal(err)
	}
	if got := as.TaintOf(start, 8); got != TaintFile {
		t.Errorf("cross-page TaintOf = %v, want TaintFile", got)
	}
	if n := as.TaintedBytesIn(0x10000, 0x10000+2*PageSize); n != 8 {
		t.Errorf("TaintedBytesIn = %d, want 8", n)
	}
}

// TestScanPointersConcurrentWithRemap: a scan runs while other goroutines
// unmap regions and fault their recycled pages into new ones. The scan of a
// stable region finds exactly its pointers, and a scan of a region that is
// itself being unmapped and remapped sees only that region's pointers,
// never the contents a recycled page takes on elsewhere. Run it under
// -race: every page is read under the address space's lock.
func TestScanPointersConcurrentWithRemap(t *testing.T) {
	as := newTestSpace(t)
	const (
		stable, victim, other = Addr(0x100000), Addr(0x200000), Addr(0x300000)
		pages                 = 8
		mine, theirs          = Addr(0x400000), Addr(0x500000)
	)
	plant := func(base, value Addr) error {
		for p := Addr(0); p < pages; p++ {
			if err := as.Write64(base+p*PageSize+8*p, uint64(value+p)); err != nil {
				return err
			}
		}
		return nil
	}
	mustMap(t, as, Region{Name: "stable", Base: stable, Size: pages * PageSize, Perm: PermRW})
	if err := plant(stable, mine); err != nil {
		t.Fatal(err)
	}
	pointerRanges := []ValueRange{{Lo: mine, Hi: theirs + pages}}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range []struct {
				base, value Addr
			}{{victim, mine}, {other, theirs}} {
				if _, err := as.Map(Region{Name: "churn", Base: r.base, Size: pages * PageSize, Perm: PermRW}); err != nil {
					t.Error(err)
					return
				}
				if err := plant(r.base, r.value); err != nil {
					t.Error(err)
					return
				}
				if err := as.Unmap(r.base); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for round := 0; round < 200; round++ {
		hits := as.ScanPointers(stable, stable+pages*PageSize, pointerRanges, nil)
		if len(hits) != pages {
			t.Fatalf("round %d: stable region has %d hits, want %d", round, len(hits), pages)
		}
		for p, h := range hits {
			if want := stable + Addr(p)*PageSize + 8*Addr(p); h.Slot != want || h.Value != mine+Addr(p) {
				t.Fatalf("round %d: hit %d = %+v", round, p, h)
			}
		}
		for _, h := range as.ScanPointers(victim, victim+pages*PageSize, pointerRanges, nil) {
			p := (h.Slot - victim) / PageSize
			if h.Slot != victim+p*PageSize+8*p || h.Value != mine+p {
				t.Fatalf("round %d: victim scan saw %+v, not one of its own pointers", round, h)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkCloneScanUnmap is one follower's variant creation and teardown
// on the shape of the nginx heap: clone a 4 MiB region whose first 60 pages
// are resident into a shifted window, scan the clone up to that watermark
// for pointers into the source, and unmap the clone.
func BenchmarkCloneScanUnmap(b *testing.B) {
	const (
		heap      = Addr(0x1000_0000)
		heapSize  = 4 << 20
		resident  = 60
		watermark = heap + resident*PageSize
		delta     = int64(0x2000_0000_0000)
	)
	as := NewAddressSpace(clock.NewCounter(), clock.DefaultCosts())
	if _, err := as.Map(Region{Name: "heap", Base: heap, Size: heapSize, Perm: PermRW}); err != nil {
		b.Fatal(err)
	}
	// Four pointers into the heap per page, as linked allocations leave.
	for p := Addr(0); p < resident; p++ {
		for k := Addr(0); k < 4; k++ {
			if err := as.Write64(heap+p*PageSize+k*512, uint64(heap+(p*7+k)%resident*PageSize)); err != nil {
				b.Fatal(err)
			}
		}
	}
	intoHeap := []ValueRange{{Lo: heap, Hi: watermark}}
	shift := func(a Addr) Addr { return Addr(int64(a) + delta) }
	var hits []PointerHit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clone, err := as.CloneRegionShifted(heap, delta, "v2:heap")
		if err != nil {
			b.Fatal(err)
		}
		if hits = as.ScanPointers(clone.Base, shift(watermark), intoHeap, hits[:0]); len(hits) != 4*resident {
			b.Fatalf("scan found %d pointers, want %d", len(hits), 4*resident)
		}
		if err := as.Unmap(clone.Base); err != nil {
			b.Fatal(err)
		}
	}
}
