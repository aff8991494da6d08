package mem

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"smvx/internal/sim/clock"
	"smvx/internal/sim/mpk"
)

// spaceDigest is a full observable-state capture used to compare an
// address space before mutation and after restore.
type spaceDigest struct {
	regions []Region
	bytes   map[Addr][]byte // per region
	taint   map[Addr][]Taint
}

func digestSpace(t *testing.T, as *AddressSpace) spaceDigest {
	t.Helper()
	d := spaceDigest{
		regions: as.Regions(),
		bytes:   make(map[Addr][]byte),
		taint:   make(map[Addr][]Taint),
	}
	for _, r := range d.regions {
		buf := make([]byte, r.Size)
		if err := as.ReadAt(r.Base, buf); err != nil {
			t.Fatalf("digest read %q: %v", r.Name, err)
		}
		d.bytes[r.Base] = buf
		if as.TaintEnabled() {
			tags := make([]Taint, r.Size)
			for i := range tags {
				tags[i] = as.TaintOf(r.Base+Addr(i), 1)
			}
			d.taint[r.Base] = tags
		}
	}
	return d
}

func digestsEqual(a, b spaceDigest) bool {
	if len(a.regions) != len(b.regions) {
		return false
	}
	for i := range a.regions {
		if a.regions[i] != b.regions[i] {
			return false
		}
		base := a.regions[i].Base
		if !bytes.Equal(a.bytes[base], b.bytes[base]) {
			return false
		}
		at, bt := a.taint[base], b.taint[base]
		if len(at) != len(bt) {
			return false
		}
		for j := range at {
			if at[j] != bt[j] {
				return false
			}
		}
	}
	return true
}

// TestSnapshotRestoreRoundTripProperty: over random initial layouts and
// random post-snapshot mutation (writes, taint, permission and key flips,
// new regions, unmaps, clones), Restore reproduces bytes, region table,
// permissions, MPK keys, and taint tags exactly.
func TestSnapshotRestoreRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		as := NewAddressSpace(clock.NewCounter(), clock.DefaultCosts())
		as.EnableTaint()
		if _, err := as.Map(Region{Name: "data", Base: 0x400000, Size: 4 * PageSize, Perm: PermRW, Key: 1}); err != nil {
			return false
		}
		if _, err := as.Map(Region{Name: "heap", Base: 0x800000, Size: 8 * PageSize, Perm: PermRW, Key: 2}); err != nil {
			return false
		}
		// Random pre-snapshot contents and tags.
		buf := make([]byte, 512)
		for i := 0; i < 10; i++ {
			rng.Read(buf)
			base := Addr(0x400000 + rng.Intn(3*PageSize))
			if rng.Intn(2) == 0 {
				base = Addr(0x800000 + rng.Intn(7*PageSize))
			}
			if err := as.WriteAt(base, buf); err != nil {
				return false
			}
			if rng.Intn(3) == 0 {
				_ = as.SetTaint(base, 64, TaintNetwork)
			}
		}
		want := digestSpace(t, as)
		snap := as.Snapshot()

		// Random post-snapshot mutation across every state dimension the
		// snapshot must undo.
		for i := 0; i < 12; i++ {
			switch rng.Intn(6) {
			case 0, 1, 2:
				rng.Read(buf)
				base := Addr(0x400000 + rng.Intn(3*PageSize))
				if rng.Intn(2) == 0 {
					base = Addr(0x800000 + rng.Intn(7*PageSize))
				}
				_ = as.WriteAt(base, buf)
			case 3:
				_ = as.SetTaint(Addr(0x800000+rng.Intn(7*PageSize)), 128, TaintFile)
			case 4:
				_ = as.SetRegionPerm(0x400000, PermRead)
				_ = as.SetRegionKey(0x800000, mpk.Key(rng.Intn(8)))
			case 5:
				// Map a new region (dropped on restore) and write into it.
				nb := Addr(0x2000000 + uint64(i)*0x10000)
				if _, err := as.Map(Region{Name: "scratch", Base: nb, Size: PageSize, Perm: PermRW}); err == nil {
					_ = as.WriteAt(nb, buf[:64])
				}
			}
		}
		if rng.Intn(2) == 0 {
			if _, err := as.CloneRegionShifted(0x400000, 0x4000000, "data-clone"); err != nil {
				return false
			}
		}
		if rng.Intn(3) == 0 {
			_ = as.Unmap(0x800000)
			// The unmapped heap's pages go to the free list; fault them
			// into a region born after capture — elsewhere, at the heap's
			// base with another size, or straddling the heap's range —
			// which Restore must drop while the heap comes back with its
			// capture-time bytes and tags.
			reuse := []Addr{0x3000000, 0x800000, 0x802000}[rng.Intn(3)]
			if _, err := as.Map(Region{Name: "reuse", Base: reuse, Size: 10 * PageSize, Perm: PermRW}); err != nil {
				return false
			}
			rng.Read(buf)
			for p := Addr(0); p < 10*PageSize; p += PageSize {
				_ = as.WriteAt(reuse+p, buf)
				_ = as.SetTaint(reuse+p, 32, TaintFile)
			}
		}

		if err := as.Restore(snap); err != nil {
			t.Logf("restore: %v", err)
			return false
		}
		got := digestSpace(t, as)
		return digestsEqual(want, got) && as.ResidentPages() == snap.ResidentPages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotMidWriteNeverTorn: a snapshot raced against a writer that
// alternates two full-buffer patterns must never capture a torn state —
// after restore the buffer reads back as entirely one pattern or entirely
// the other, even when the write spans a page boundary.
func TestSnapshotMidWriteNeverTorn(t *testing.T) {
	as := NewAddressSpace(nil, clock.DefaultCosts())
	if _, err := as.Map(Region{Name: "buf", Base: 0x10000, Size: 4 * PageSize, Perm: PermRW}); err != nil {
		t.Fatal(err)
	}
	// The write target straddles a page boundary on purpose.
	const target = Addr(0x10000 + PageSize - 512)
	const n = 1024
	patA := bytes.Repeat([]byte{0xAA}, n)
	patB := bytes.Repeat([]byte{0x55}, n)
	if err := as.WriteAt(target, patA); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := patA
			if i%2 == 1 {
				p = patB
			}
			if err := as.WriteAt(target, p); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for round := 0; round < 50; round++ {
		snap := as.Snapshot()
		// Let the writer dirty pages under the active snapshot.
		for i := 0; i < 10; i++ {
			_ = as.ReadAt(target, make([]byte, 8))
		}
		if round == 49 {
			close(stop)
			wg.Wait()
		}
		if round < 49 {
			continue
		}
		if err := as.Restore(snap); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, n)
		if err := as.ReadAt(target, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, patA) && !bytes.Equal(got, patB) {
			t.Fatalf("restored buffer is torn: first=%#x last=%#x", got[0], got[n-1])
		}
	}
}

// TestSnapshotRepeatedRestore: the same checkpoint absorbs repeated
// rollbacks — mutate, restore, mutate again, restore again.
func TestSnapshotRepeatedRestore(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "d", Base: 0x1000, Size: PageSize, Perm: PermRW})
	if err := as.WriteAt(0x1000, []byte("checkpointed")); err != nil {
		t.Fatal(err)
	}
	snap := as.Snapshot()
	for i := 0; i < 3; i++ {
		if err := as.WriteAt(0x1000, []byte("scribbled-on")); err != nil {
			t.Fatal(err)
		}
		if err := as.Restore(snap); err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		got := make([]byte, 12)
		if err := as.ReadAt(0x1000, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != "checkpointed" {
			t.Fatalf("restore %d: got %q", i, got)
		}
	}
}

// TestSnapshotDirtyPageAccounting: DirtyPages counts each dirtied page
// once, regardless of how many writes hit it, and stops counting once the
// snapshot is dropped.
func TestSnapshotDirtyPageAccounting(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "d", Base: 0x1000, Size: 4 * PageSize, Perm: PermRW})
	if err := as.Touch(0x1000, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	snap := as.Snapshot()
	if snap.ResidentPages() != 4 {
		t.Fatalf("resident = %d, want 4", snap.ResidentPages())
	}
	for i := 0; i < 10; i++ {
		if err := as.Write64(0x1000+Addr(i*8), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := snap.DirtyPages(); got != 1 {
		t.Fatalf("DirtyPages = %d, want 1 (same page rewritten)", got)
	}
	if err := as.Write64(0x1000+2*PageSize, 7); err != nil {
		t.Fatal(err)
	}
	if got := snap.DirtyPages(); got != 2 {
		t.Fatalf("DirtyPages = %d, want 2", got)
	}
	// A dropped snapshot saves nothing more, neither for a store nor for
	// an unmap of its resident pages.
	as.DropSnapshot(snap)
	if err := as.Write64(0x1000+3*PageSize, 7); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(0x1000); err != nil {
		t.Fatal(err)
	}
	if got := snap.DirtyPages(); got != 2 {
		t.Fatalf("DirtyPages = %d after the drop, want 2", got)
	}
}

// TestSnapshotStaleRestoreRejected: only the active snapshot can restore;
// an older generation fails loudly rather than restoring incomplete
// pre-images.
func TestSnapshotStaleRestoreRejected(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "d", Base: 0x1000, Size: PageSize, Perm: PermRW})
	old := as.Snapshot()
	fresh := as.Snapshot()
	if err := as.Restore(old); err == nil {
		t.Error("restoring a superseded snapshot should fail")
	}
	if err := as.Restore(fresh); err != nil {
		t.Errorf("restoring the active snapshot: %v", err)
	}
	as.DropSnapshot(old) // superseded: leaves fresh armed
	if err := as.Restore(fresh); err != nil {
		t.Errorf("restoring the active snapshot after dropping a stale one: %v", err)
	}
	as.DropSnapshot(fresh)
	if err := as.Restore(fresh); err == nil {
		t.Error("restoring after DropSnapshot should fail")
	}
}

// TestSnapshotRestoresUnmappedRegion: a region unmapped after capture
// comes back with its contents.
func TestSnapshotRestoresUnmappedRegion(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "d", Base: 0x1000, Size: PageSize, Perm: PermRW, Key: 3})
	if err := as.WriteAt(0x1000, []byte("survives unmap")); err != nil {
		t.Fatal(err)
	}
	snap := as.Snapshot()
	if err := as.Unmap(0x1000); err != nil {
		t.Fatal(err)
	}
	if err := as.Restore(snap); err != nil {
		t.Fatal(err)
	}
	r := as.RegionAt(0x1000)
	if r == nil || r.Name != "d" || r.Key != 3 {
		t.Fatalf("region not restored: %+v", r)
	}
	got := make([]byte, 14)
	if err := as.ReadAt(0x1000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "survives unmap" {
		t.Fatalf("contents = %q", got)
	}
}
