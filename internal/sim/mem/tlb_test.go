package mem

import (
	"bytes"
	"reflect"
	"testing"

	"smvx/internal/sim/mpk"
)

// TestTLBMatchesUncachedAfterMutation warms a thread's TLB, runs one
// generation-bumping mutator, and requires the next cached load and store
// to return exactly the fault or bytes an uncached access returns — and a
// cached store that succeeds to land in the live page.
func TestTLBMatchesUncachedAfterMutation(t *testing.T) {
	const data, late = Addr(0x10000), Addr(0x20000)
	denyKey3 := mpk.AllowAll.WithAccessDisabled(3, true)
	cases := []struct {
		name   string
		target Addr
		pkru   mpk.PKRU
		// prepare runs before the TLB is warmed and returns the mutator.
		prepare func(t *testing.T, as *AddressSpace) func() error
	}{
		{"Map", data, mpk.AllowAll, func(t *testing.T, as *AddressSpace) func() error {
			return func() error {
				_, err := as.Map(Region{Name: "extra", Base: 0x30000, Size: PageSize, Perm: PermRW})
				return err
			}
		}},
		{"Unmap", data, mpk.AllowAll, func(t *testing.T, as *AddressSpace) func() error {
			return func() error { return as.Unmap(data) }
		}},
		{"Unmap recycles the page into another region", data, mpk.AllowAll, func(t *testing.T, as *AddressSpace) func() error {
			return func() error {
				if err := as.Unmap(data); err != nil {
					return err
				}
				if _, err := as.Map(Region{Name: "other", Base: 0x30000, Size: PageSize, Perm: PermRW}); err != nil {
					return err
				}
				return as.WriteAt(0x30000, []byte("recycled"))
			}
		}},
		{"Unmap and remap at the same base", data, mpk.AllowAll, func(t *testing.T, as *AddressSpace) func() error {
			return func() error {
				if err := as.Unmap(data); err != nil {
					return err
				}
				if _, err := as.Map(Region{Name: "again", Base: data, Size: PageSize, Perm: PermRW}); err != nil {
					return err
				}
				return as.WriteAt(data, []byte("remapped"))
			}
		}},
		{"SetRegionPerm read-only", data, mpk.AllowAll, func(t *testing.T, as *AddressSpace) func() error {
			return func() error { return as.SetRegionPerm(data, PermRead) }
		}},
		{"SetRegionPerm none", data, mpk.AllowAll, func(t *testing.T, as *AddressSpace) func() error {
			return func() error { return as.SetRegionPerm(data, 0) }
		}},
		{"SetRegionKey", data, denyKey3, func(t *testing.T, as *AddressSpace) func() error {
			return func() error { return as.SetRegionKey(data, 3) }
		}},
		{"Restore drops a page born after capture", data + PageSize, mpk.AllowAll, func(t *testing.T, as *AddressSpace) func() error {
			snap := as.Snapshot()
			if err := as.WriteAt(data+PageSize, []byte("born after capture")); err != nil {
				t.Fatal(err)
			}
			return func() error { return as.Restore(snap) }
		}},
		{"Restore removes a region mapped after capture", late, mpk.AllowAll, func(t *testing.T, as *AddressSpace) func() error {
			snap := as.Snapshot()
			mustMap(t, as, Region{Name: "late", Base: late, Size: PageSize, Perm: PermRW})
			if err := as.WriteAt(late, []byte("mapped after capture")); err != nil {
				t.Fatal(err)
			}
			return func() error { return as.Restore(snap) }
		}},
		{"Restore rewinds a dirtied page", data, mpk.AllowAll, func(t *testing.T, as *AddressSpace) func() error {
			snap := as.Snapshot()
			if err := as.WriteAt(data, []byte("dirtied after capture")); err != nil {
				t.Fatal(err)
			}
			return func() error { return as.Restore(snap) }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			as := newTestSpace(t)
			mustMap(t, as, Region{Name: "data", Base: data, Size: 2 * PageSize, Perm: PermRW})
			if err := as.WriteAt(data, []byte("resident at start")); err != nil {
				t.Fatal(err)
			}
			mutate := c.prepare(t, as)

			var tlb TLB
			if err := as.ThreadReadAt(&tlb, c.target, make([]byte, 8), c.pkru, true); err != nil {
				t.Fatalf("warming load: %v", err)
			}
			if err := mutate(); err != nil {
				t.Fatalf("mutator: %v", err)
			}

			cached, uncached := make([]byte, 8), make([]byte, 8)
			errC := as.ThreadReadAt(&tlb, c.target, cached, c.pkru, true)
			errU := as.CheckedReadAt(c.target, uncached, c.pkru)
			if !reflect.DeepEqual(errC, errU) || !bytes.Equal(cached, uncached) {
				t.Errorf("load: cached (%q, %v), uncached (%q, %v)", cached, errC, uncached, errU)
			}

			errC = as.ThreadWriteAt(&tlb, c.target, []byte("cached.."), c.pkru, true)
			if errC == nil {
				got := make([]byte, 8)
				if err := as.ReadAt(c.target, got); err != nil || string(got) != "cached.." {
					t.Errorf("cached store not in the live page: read back (%q, %v)", got, err)
				}
			}
			errU = as.CheckedWriteAt(c.target, []byte("uncached"), c.pkru)
			if !reflect.DeepEqual(errC, errU) {
				t.Errorf("store: cached %v, uncached %v", errC, errU)
			}
		})
	}
}

// TestTLBIsPerAddressSpace: an entry filled from one address space never
// serves another, even at the same page base.
func TestTLBIsPerAddressSpace(t *testing.T) {
	a, b := newTestSpace(t), newTestSpace(t)
	for _, as := range []*AddressSpace{a, b} {
		mustMap(t, as, Region{Name: "data", Base: 0x10000, Size: PageSize, Perm: PermRW})
	}
	if err := a.WriteAt(0x10000, []byte{'a'}); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteAt(0x10000, []byte{'b'}); err != nil {
		t.Fatal(err)
	}
	var tlb TLB
	got := make([]byte, 1)
	for _, want := range []struct {
		as   *AddressSpace
		byte byte
	}{{a, 'a'}, {b, 'b'}, {a, 'a'}} {
		if err := want.as.ThreadReadAt(&tlb, 0x10000, got, mpk.AllowAll, true); err != nil {
			t.Fatal(err)
		}
		if got[0] != want.byte {
			t.Fatalf("read %q, want %q", got[0], want.byte)
		}
	}
}
