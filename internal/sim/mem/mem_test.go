package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"smvx/internal/sim/clock"
	"smvx/internal/sim/mpk"
)

func newTestSpace(t *testing.T) *AddressSpace {
	t.Helper()
	return NewAddressSpace(clock.NewCounter(), clock.DefaultCosts())
}

func mustMap(t *testing.T, as *AddressSpace, r Region) *Region {
	t.Helper()
	reg, err := as.Map(r)
	if err != nil {
		t.Fatalf("Map(%q): %v", r.Name, err)
	}
	return reg
}

func TestMapRoundsToPages(t *testing.T) {
	as := newTestSpace(t)
	reg := mustMap(t, as, Region{Name: "x", Base: 0x1000, Size: 100, Perm: PermRW})
	if reg.Size != PageSize {
		t.Errorf("Size = %d, want %d", reg.Size, PageSize)
	}
	if reg.Base != 0x1000 {
		t.Errorf("Base = %s, want 0x1000", reg.Base)
	}
}

func TestMapRejectsOverlap(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "a", Base: 0x1000, Size: 2 * PageSize, Perm: PermRW})
	if _, err := as.Map(Region{Name: "b", Base: 0x2000, Size: PageSize, Perm: PermRW}); err == nil {
		t.Error("Map of overlapping region should fail")
	}
	// Adjacent is fine.
	if _, err := as.Map(Region{Name: "c", Base: 0x3000, Size: PageSize, Perm: PermRW}); err != nil {
		t.Errorf("Map of adjacent region: %v", err)
	}
}

func TestMapRejectsZeroSize(t *testing.T) {
	as := newTestSpace(t)
	if _, err := as.Map(Region{Name: "z", Base: 0x1000}); err == nil {
		t.Error("zero-size Map should fail")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "data", Base: 0x10000, Size: 4 * PageSize, Perm: PermRW})
	msg := []byte("hello, simulated world")
	if err := as.WriteAt(0x10100, msg); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(msg))
	if err := as.ReadAt(0x10100, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("ReadAt = %q, want %q", got, msg)
	}
}

func TestReadWriteCrossesPageBoundary(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "data", Base: 0x10000, Size: 2 * PageSize, Perm: PermRW})
	msg := bytes.Repeat([]byte{0xAB}, 300)
	addr := Addr(0x10000 + PageSize - 150) // straddles the page boundary
	if err := as.WriteAt(addr, msg); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(msg))
	if err := as.ReadAt(addr, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("cross-page round trip mismatch")
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	as := newTestSpace(t)
	err := as.ReadAt(0xdead000, make([]byte, 8))
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want FaultError", err)
	}
	if fe.Kind != FaultUnmapped {
		t.Errorf("Kind = %v, want FaultUnmapped", fe.Kind)
	}
}

func TestPermFaults(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: ".text", Base: 0x400000, Size: PageSize, Perm: PermRX})
	mustMap(t, as, Region{Name: "xom", Base: 0x500000, Size: PageSize, Perm: PermExec})

	if err := as.WriteAt(0x400010, []byte{1}); err == nil {
		t.Error("write to r-x region should fault")
	} else {
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Kind != FaultPerm {
			t.Errorf("err = %v, want FaultPerm", err)
		}
	}
	// Execute-only memory: readable by nobody, still executable.
	if err := as.ReadAt(0x500010, make([]byte, 1)); err == nil {
		t.Error("read of execute-only region should fault")
	}
	if err := as.CheckExec(0x500010); err != nil {
		t.Errorf("CheckExec on execute-only region: %v", err)
	}
	if err := as.CheckExec(0x400010); err != nil {
		t.Errorf("CheckExec on r-x region: %v", err)
	}
}

func TestPkeyFaults(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "monitor-data", Base: 0x700000, Size: PageSize, Perm: PermRW, Key: 2})

	appPKRU := mpk.AllowAll.WithAccessDisabled(2, true)
	monPKRU := mpk.AllowAll

	if err := as.CheckedReadAt(0x700000, make([]byte, 8), appPKRU); err == nil {
		t.Error("application PKRU must not read monitor data")
	} else {
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Kind != FaultPkey {
			t.Errorf("err = %v, want FaultPkey", err)
		}
	}
	if err := as.CheckedReadAt(0x700000, make([]byte, 8), monPKRU); err != nil {
		t.Errorf("monitor PKRU read: %v", err)
	}
	// Write-disable allows reads, denies writes.
	wd := mpk.AllowAll.WithWriteDisabled(2, true)
	if err := as.CheckedReadAt(0x700000, make([]byte, 8), wd); err != nil {
		t.Errorf("WD read: %v", err)
	}
	if err := as.CheckedWriteAt(0x700000, []byte{1}, wd); err == nil {
		t.Error("WD write should fault")
	}
}

func TestRead64Write64(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "d", Base: 0x10000, Size: PageSize, Perm: PermRW})
	f := func(v uint64) bool {
		if err := as.Write64(0x10040, v); err != nil {
			return false
		}
		got, err := as.Read64(0x10040)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResidentPagesLazy(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "big", Base: 0x100000, Size: 64 * PageSize, Perm: PermRW})
	if got := as.ResidentPages(); got != 0 {
		t.Errorf("ResidentPages before touch = %d, want 0", got)
	}
	if err := as.WriteAt(0x100000, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteAt(0x100000+5*PageSize, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentPages(); got != 2 {
		t.Errorf("ResidentPages = %d, want 2", got)
	}
	if got := as.ResidentKB(); got != 8 {
		t.Errorf("ResidentKB = %d, want 8", got)
	}
}

func TestResidentKBIn(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "a", Base: 0x100000, Size: 4 * PageSize, Perm: PermRW})
	mustMap(t, as, Region{Name: "b", Base: 0x200000, Size: 4 * PageSize, Perm: PermRW})
	_ = as.Touch(0x100000, 2*PageSize)
	_ = as.Touch(0x200000, 3*PageSize)
	if got := as.ResidentKBIn(func(n string) bool { return n == "a" }); got != 8 {
		t.Errorf("ResidentKBIn(a) = %d, want 8", got)
	}
	if got := as.ResidentKBIn(func(n string) bool { return n == "b" }); got != 12 {
		t.Errorf("ResidentKBIn(b) = %d, want 12", got)
	}
}

func TestUnmapDiscardsPages(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "tmp", Base: 0x100000, Size: 2 * PageSize, Perm: PermRW})
	_ = as.Touch(0x100000, 2*PageSize)
	if err := as.Unmap(0x100000); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if got := as.ResidentPages(); got != 0 {
		t.Errorf("ResidentPages after Unmap = %d, want 0", got)
	}
	if err := as.ReadAt(0x100000, make([]byte, 1)); err == nil {
		t.Error("read after Unmap should fault")
	}
	if err := as.Unmap(0x100000); err == nil {
		t.Error("double Unmap should fail")
	}
}

// TestRecycledPageIsZeroAndUntainted: pages an Unmap releases are taken by
// the next fault-in, in another region, and read there as fresh pages do:
// all zero with no taint. The resident counts follow the tables.
func TestRecycledPageIsZeroAndUntainted(t *testing.T) {
	as := newTestSpace(t)
	as.EnableTaint()
	mustMap(t, as, Region{Name: "old", Base: 0x100000, Size: 2 * PageSize, Perm: PermRW})
	if err := as.WriteAt(0x100000, bytes.Repeat([]byte{0xAB}, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := as.SetTaint(0x100000, 2*PageSize, TaintNetwork); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(0x100000); err != nil {
		t.Fatal(err)
	}
	if got := len(as.free); got != 2 {
		t.Fatalf("free list holds %d pages after Unmap, want 2", got)
	}
	mustMap(t, as, Region{Name: "new", Base: 0x200000, Size: 3 * PageSize, Perm: PermRW})
	if err := as.Touch(0x200000, 3*PageSize); err != nil {
		t.Fatal(err)
	}
	if got := len(as.free); got != 0 {
		t.Errorf("free list holds %d pages after the fault-ins, want 0", got)
	}
	got := make([]byte, 3*PageSize)
	if err := as.ReadAt(0x200000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 3*PageSize)) {
		t.Error("a recycled page is not zero in its new region")
	}
	if tag := as.TaintOf(0x200000, 3*PageSize); tag != TaintNone {
		t.Errorf("recycled pages carry taint %v", tag)
	}
	if n := as.TaintedBytesIn(0, 0x300000); n != 0 {
		t.Errorf("TaintedBytesIn = %d, want 0", n)
	}
	if got := as.ResidentPages(); got != 3 {
		t.Errorf("ResidentPages = %d, want 3", got)
	}
	if got, all := as.ResidentKBIn(func(n string) bool { return n == "new" }), as.ResidentKB(); got != 12 || all != 12 {
		t.Errorf("ResidentKBIn(new) = %d, ResidentKB = %d, want 12 and 12", got, all)
	}
}

func TestRegionLookups(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: ".text", Base: 0x400000, Size: 2 * PageSize, Perm: PermRX})
	mustMap(t, as, Region{Name: ".data", Base: 0x600000, Size: PageSize, Perm: PermRW})

	if r := as.RegionAt(0x400fff); r == nil || r.Name != ".text" {
		t.Errorf("RegionAt(0x400fff) = %v", r)
	}
	if r := as.RegionAt(0x402000); r != nil {
		t.Errorf("RegionAt past .text = %v, want nil", r)
	}
	if r := as.RegionByName(".data"); r == nil || r.Base != 0x600000 {
		t.Errorf("RegionByName(.data) = %v", r)
	}
	if r := as.RegionByName("nope"); r != nil {
		t.Errorf("RegionByName(nope) = %v, want nil", r)
	}
	regs := as.Regions()
	if len(regs) != 2 || regs[0].Name != ".text" || regs[1].Name != ".data" {
		t.Errorf("Regions() = %v", regs)
	}
}

func TestSetRegionPermAndKey(t *testing.T) {
	as := newTestSpace(t)
	mustMap(t, as, Region{Name: "plt", Base: 0x400000, Size: PageSize, Perm: PermRX})
	if err := as.SetRegionPerm(0x400000, PermExec); err != nil {
		t.Fatalf("SetRegionPerm: %v", err)
	}
	if err := as.ReadAt(0x400000, make([]byte, 1)); err == nil {
		t.Error("read of now execute-only plt should fault")
	}
	if err := as.SetRegionKey(0x400000, 3); err != nil {
		t.Fatalf("SetRegionKey: %v", err)
	}
	if r := as.RegionAt(0x400000); r.Key != 3 {
		t.Errorf("Key = %d, want 3", r.Key)
	}
	if err := as.SetRegionPerm(0x999000, PermRW); err == nil {
		t.Error("SetRegionPerm on missing region should fail")
	}
	if err := as.SetRegionKey(0x999000, 1); err == nil {
		t.Error("SetRegionKey on missing region should fail")
	}
}

func TestChargesCycles(t *testing.T) {
	ctr := clock.NewCounter()
	costs := clock.DefaultCosts()
	as := NewAddressSpace(ctr, costs)
	_, err := as.Map(Region{Name: "d", Base: 0x1000, Size: 2 * PageSize, Perm: PermRW})
	if err != nil {
		t.Fatal(err)
	}
	before := ctr.Cycles()
	if err := as.WriteAt(0x1000, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if ctr.Cycles() <= before {
		t.Error("WriteAt should charge cycles")
	}
	// A load reaching a non-resident page starts over under the write lock
	// to fault it in, and is still charged once.
	before = ctr.Cycles()
	if err := as.ReadAt(0x1000+PageSize-4, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if got := ctr.Cycles() - before; got != costs.MemAccess {
		t.Errorf("straddling load charged %d cycles, want %d", got, costs.MemAccess)
	}
	if got := as.ResidentPages(); got != 2 {
		t.Errorf("ResidentPages = %d, want 2", got)
	}
}

func TestFaultErrorMessage(t *testing.T) {
	e := &FaultError{Kind: FaultUnmapped, Addr: 0xdead, Access: mpk.Read}
	if e.Error() != "segfault: unmapped read at 0xdead" {
		t.Errorf("Error() = %q", e.Error())
	}
	e2 := &FaultError{Kind: FaultPkey, Addr: 0xbeef, Access: mpk.Write, Region: "monitor"}
	if e2.Error() != "segfault: pkey write at 0xbeef (region monitor)" {
		t.Errorf("Error() = %q", e2.Error())
	}
}

func TestPermString(t *testing.T) {
	tests := []struct {
		perm Perm
		want string
	}{
		{PermRead, "r--"},
		{PermRW, "rw-"},
		{PermRX, "r-x"},
		{PermRWX, "rwx"},
		{PermExec, "--x"},
		{0, "---"},
	}
	for _, tt := range tests {
		if got := tt.perm.String(); got != tt.want {
			t.Errorf("Perm(%b).String() = %q, want %q", tt.perm, got, tt.want)
		}
	}
}

func TestFaultKindString(t *testing.T) {
	if FaultUnmapped.String() != "unmapped" || FaultPerm.String() != "permission" || FaultPkey.String() != "pkey" {
		t.Error("FaultKind strings mismatch")
	}
	if FaultKind(42).String() != "fault(42)" {
		t.Error("unknown fault kind string")
	}
}
