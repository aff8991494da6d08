package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"smvx/internal/sim/clock"
)

// referenceScan is the per-slot scan that the candidate cache replaced,
// kept as the reference the cached scan must equal: it copies each
// resident page out under the read lock, tests every 8-byte-aligned slot
// in [start, end), and charges ScanPerSlot per slot.
func referenceScan(as *AddressSpace, start, end Addr, ranges []ValueRange) []PointerHit {
	start = (start + PointerAlign - 1) &^ (PointerAlign - 1)
	var hits []PointerHit
	var data [PageSize]byte
	slots := clock.Cycles(0)
	for next := start.PageBase(); next < end; {
		as.mu.RLock()
		pageBase, pg := as.nextResidentLocked(next, end)
		if pg != nil {
			data = pg.data
		}
		as.mu.RUnlock()
		if pg == nil {
			break
		}
		next = pageBase + PageSize
		lo, hi := max(pageBase, start), min(pageBase+PageSize, end)
		for a := lo; a+PointerAlign <= hi; a += PointerAlign {
			slots++
			if v := Addr(le64(data[a-pageBase : a-pageBase+8])); v != 0 && contains(ranges, v) {
				hits = append(hits, PointerHit{Slot: a, Value: v})
			}
		}
	}
	as.charge(as.costs.ScanPerSlot*slots, true)
	return hits
}

// The scan programs run over a source region, two shifted clones of it (the
// follower windows) and a spare region that unmapped pages are faulted back
// into.
const (
	progSrc   = Addr(0x100000)
	progPages = 4
	progShift = int64(0x100000) // clone k sits at progSrc + k*progShift
	progSpare = Addr(0x800000)
	progImage = Addr(0x400000)
)

// progRangeSets are the value ranges a program's scans use: the monitor's
// shape (the source "heap" and an "image"), and a second set that makes the
// caches start over.
var progRangeSets = [][]ValueRange{
	{{Lo: progImage, Hi: progImage + 2*PageSize}, {Lo: progSrc, Hi: progSrc + progPages*PageSize}},
	{{Lo: progImage, Hi: progImage + PageSize/2}},
}

// progRegions are the bases of the regions a program addresses.
var progRegions = []Addr{progSrc, progSrc + Addr(progShift), progSrc + 2*Addr(progShift), progSpare}

// runScanProgram interprets prog as a sequence of operations on one address
// space — 8-byte stores, shifted clones, refreshes, unmaps whose pages are
// faulted back in elsewhere, snapshots, restores and scans — and checks
// every scan, and a final scan of every region under each range set, against
// referenceScan in hits and in cycles charged. It returns the first
// mismatch. Any byte string is a valid program.
func runScanProgram(prog []byte) error {
	ctr := clock.NewCounter()
	as := NewAddressSpace(ctr, clock.DefaultCosts())
	if _, err := as.Map(Region{Name: "src", Base: progSrc, Size: progPages * PageSize, Perm: PermRW}); err != nil {
		return err
	}
	var snap *Snapshot
	var hits []PointerHit
	check := func(step int, start, end Addr, ranges []ValueRange) error {
		before := ctr.Cycles()
		want := referenceScan(as, start, end, ranges)
		wantCycles := ctr.Cycles() - before
		before = ctr.Cycles()
		hits = as.ScanPointers(start, end, ranges, hits[:0])
		gotCycles := ctr.Cycles() - before
		if !slices.Equal(hits, want) || gotCycles != wantCycles {
			return fmt.Errorf("step %d: scan [%s, %s) under %v = %v (%d cycles), reference %v (%d cycles)",
				step, start, end, ranges, hits, gotCycles, want, wantCycles)
		}
		return nil
	}
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	for step := 0; len(prog) > 0; step++ {
		switch op := next() % 7; op {
		case 0: // an 8-byte store into any mapped region
			base := progRegions[next()%len(progRegions)]
			slot := base + Addr((next()<<8|next())%(progPages*PageSize/PointerAlign))*PointerAlign
			var v uint64
			switch k := next(); k % 4 {
			case 0:
				v = 0
			case 1:
				v = uint64(progSrc) + uint64(k*40)%(progPages*PageSize)
			case 2:
				v = uint64(progImage) + uint64(k*24)%(2*PageSize)
			default:
				v = uint64(k)<<32 | 0x7
			}
			_ = as.Write64(slot, v) // a store to an unmapped region just faults
		case 1, 2: // a shifted clone of the source, or a refresh of one
			k := 1 + next()%2
			dst := progSrc + Addr(int64(k)*progShift)
			switch {
			case as.RegionAt(progSrc) == nil:
			case as.RegionAt(dst) == nil:
				if _, err := as.CloneRegionShifted(progSrc, int64(k)*progShift, fmt.Sprintf("v%d", k+1)); err != nil {
					return err
				}
			case op == 2:
				if err := as.RefreshClone(progSrc, int64(k)*progShift); err != nil {
					return err
				}
			}
		case 3: // unmap a region, then fault the released pages back in elsewhere
			base := progRegions[next()%len(progRegions)]
			if as.RegionAt(base) == nil {
				break
			}
			if err := as.Unmap(base); err != nil {
				return err
			}
			if as.RegionAt(progSpare) == nil {
				if _, err := as.Map(Region{Name: "spare", Base: progSpare, Size: progPages * PageSize, Perm: PermRW}); err != nil {
					return err
				}
			}
			if err := as.Touch(progSpare, uint64(1+next()%progPages)*PageSize); err != nil {
				return err
			}
			if base == progSrc {
				if _, err := as.Map(Region{Name: "src", Base: progSrc, Size: progPages * PageSize, Perm: PermRW}); err != nil {
					return err
				}
			}
		case 4:
			snap = as.Snapshot()
		case 5:
			if snap != nil {
				if err := as.Restore(snap); err != nil {
					return err
				}
			}
		case 6: // a scan of part or all of one region
			base := progRegions[next()%len(progRegions)]
			lo := base + Addr(next()%(progPages*PageSize/64))*64 + Addr(next()%3)
			hi := lo + Addr(1+next())*64
			if next()%2 == 0 {
				lo, hi = base, base+progPages*PageSize
			}
			if err := check(step, lo, hi, progRangeSets[next()%len(progRangeSets)]); err != nil {
				return err
			}
		}
	}
	for _, ranges := range progRangeSets {
		for _, base := range progRegions {
			if err := check(-1, base, base+progPages*PageSize, ranges); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanProgram is one random program for runScanProgram.
func scanProgram(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	prog := make([]byte, 200+rng.Intn(400))
	rng.Read(prog)
	return prog
}

// scanProgramSeeds seed both TestScanCacheMatchesReferenceProperty and
// FuzzScanPointers.
const scanProgramSeeds = 300

// TestScanCacheMatchesReferenceProperty: over random programs of stores,
// clones, refreshes, unmaps with page recycling, snapshots and restores, the
// cached pointer scan finds exactly the reference scan's hits and charges
// exactly its cycles.
func TestScanCacheMatchesReferenceProperty(t *testing.T) {
	for seed := int64(0); seed < scanProgramSeeds; seed++ {
		if err := runScanProgram(scanProgram(seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzScanPointers runs fuzzed programs through runScanProgram.
func FuzzScanPointers(f *testing.F) {
	for seed := int64(0); seed < scanProgramSeeds; seed += 10 {
		f.Add(scanProgram(seed))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if err := runScanProgram(prog); err != nil {
			t.Fatal(err)
		}
	})
}

// TestClonesShareOneScan: the clones of an unchanged source page share one
// candidate list, and a store to the source makes the next clone scan anew.
func TestClonesShareOneScan(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "heap", Base: progSrc, Size: PageSize, Perm: PermRW})
	if err := as.Write64(progSrc+16, uint64(progSrc+64)); err != nil {
		t.Fatal(err)
	}
	ranges := []ValueRange{{Lo: progSrc, Hi: progSrc + PageSize}}
	offsets := func(base Addr) []uint16 {
		t.Helper()
		if hits := as.ScanPointers(base, base+PageSize, ranges, nil); len(hits) != 1 {
			t.Fatalf("scan of %s found %v, want one pointer", base, hits)
		}
		as.mu.RLock()
		defer as.mu.RUnlock()
		return as.mappingAtLocked(base).pages[0].cands.offs
	}
	var lists [][]uint16
	for k := int64(1); k <= 3; k++ {
		if _, err := as.CloneRegionShifted(progSrc, k*progShift, fmt.Sprint(k)); err != nil {
			t.Fatal(err)
		}
		lists = append(lists, offsets(progSrc+Addr(k*progShift)))
	}
	if &lists[1][0] != &lists[0][0] || &lists[2][0] != &lists[0][0] {
		t.Error("the clones of an unchanged page scanned it again")
	}
	if err := as.Write64(progSrc+24, uint64(progSrc+128)); err != nil {
		t.Fatal(err)
	}
	if err := as.RefreshClone(progSrc, progShift); err != nil {
		t.Fatal(err)
	}
	hits := as.ScanPointers(progSrc+Addr(progShift), progSrc+Addr(progShift)+PageSize, ranges, nil)
	if len(hits) != 2 {
		t.Errorf("refreshed clone of a rewritten page: %v, want both pointers", hits)
	}
}
