package machine

import (
	"errors"
	"reflect"
	"testing"

	"smvx/internal/sim/clock"
	"smvx/internal/sim/mem"
	"smvx/internal/sim/mpk"
)

// loadEachByte is the C-string read AppendCString replaced, kept as its
// reference: one Load8 per byte, stopping after the NUL.
func loadEachByte(t *Thread, addr mem.Addr, max int) []byte {
	var out []byte
	for i := 0; i < max; i++ {
		b := t.Load8(addr + mem.Addr(i))
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return out
}

// taintCall is one OnTaintedAccess call.
type taintCall struct{ ip, addr mem.Addr }

// cstringOutcome is everything a C-string read changes that the caller or
// the simulation can observe.
type cstringOutcome struct {
	Bytes    string
	Cycles   clock.Cycles // total counter delta
	Wall     clock.Cycles // wall counter delta
	Fault    *mem.FaultError
	Resident int
	FaultIn  int // pages the read faulted in
	Acc      mem.Taint
	Sink     []taintCall
}

// TestAppendCStringMatchesLoad8Loop: for strings that cross a page, stop
// at max, run into a page the thread may not read, or start on or run onto
// a page not yet resident, on foreground and background threads, with taint
// off and on, the page-at-a-time read and the per-byte Load8 loop return
// the same bytes, charge the same cycles to both counters, fault with the
// same error, leave the same pages resident, and leave the same taint
// accumulator and sink calls.
func TestAppendCStringMatchesLoad8Loop(t *testing.T) {
	const (
		strBase  mem.Addr = 0x20_0000 // "str", two resident pages
		coldBase mem.Addr = 0x30_0000 // "cold", three pages, the middle one resident
		cStrMax           = 4096      // libc.CStrMax
		crossing          = "crosses a page boundary"
	)
	cross := strBase + mem.PageSize - 20  // crossing and its NUL
	edge := strBase + 2*mem.PageSize - 16 // 16 bytes without a NUL, to the end of "str"
	warm := coldBase + 2*mem.PageSize - 4 // 4 bytes without a NUL, to the end of the resident page
	next := strBase + 2*mem.PageSize
	xom := &mem.Region{Name: "xom", Base: next, Size: mem.PageSize, Perm: mem.PermExec}
	keyed := &mem.Region{Name: "keyed", Base: next, Size: mem.PageSize, Perm: mem.PermRW, Key: 3}
	deny3 := mpk.AllowAll.WithAccessDisabled(3, true)

	cases := []struct {
		name       string
		addr       mem.Addr
		max        int
		next       *mem.Region // mapped right after "str"; nil leaves it unmapped
		pkru       mpk.PKRU
		background bool
		taint      bool
		wantFault  mem.FaultKind // zero: the read completes
		faultsIn   int           // pages the read faults in
	}{
		{name: "crosses a page boundary", addr: cross, max: cStrMax},
		{name: "max 0", addr: cross, max: 0},
		{name: "max 1", addr: cross, max: 1},
		{name: "max len", addr: cross, max: len(crossing)},
		{name: "max len+1", addr: cross, max: len(crossing) + 1},
		{name: "runs into an unmapped page", addr: edge, max: cStrMax, wantFault: mem.FaultUnmapped},
		{name: "runs into a non-readable region", addr: edge, max: cStrMax, next: xom, wantFault: mem.FaultPerm},
		{name: "runs into a region whose pkey PKRU denies", addr: edge, max: cStrMax, next: keyed, pkru: deny3, wantFault: mem.FaultPkey},
		{name: "stops at max before a denied region", addr: edge, max: 16, next: keyed, pkru: deny3},
		{name: "first byte on a non-resident page", addr: coldBase, max: cStrMax, faultsIn: 1},
		{name: "runs onto a non-resident page", addr: warm, max: cStrMax, faultsIn: 1},
		{name: "background thread", addr: cross, max: cStrMax, background: true},
		{name: "background thread faults", addr: edge, max: cStrMax, background: true, wantFault: mem.FaultUnmapped},
		{name: "taint", addr: cross, max: cStrMax, taint: true},
		{name: "taint, stops at max", addr: cross, max: len(crossing), taint: true},
		{name: "taint, faults", addr: edge, max: cStrMax, taint: true, wantFault: mem.FaultUnmapped},
		{name: "taint, first byte on a non-resident page", addr: coldBase, max: cStrMax, taint: true, faultsIn: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Each read gets its own identically built rig, since a read
			// can fault pages in.
			read := func(readString func(th *Thread, addr mem.Addr, max int) []byte) cstringOutcome {
				r := newRig(t)
				wall := clock.NewCounter()
				r.as.SetWallCounter(wall)
				if c.taint {
					r.as.EnableTaint()
				}
				if _, err := r.as.Map(mem.Region{Name: "str", Base: strBase, Size: 2 * mem.PageSize, Perm: mem.PermRW}); err != nil {
					t.Fatal(err)
				}
				if _, err := r.as.Map(mem.Region{Name: "cold", Base: coldBase, Size: 3 * mem.PageSize, Perm: mem.PermRW}); err != nil {
					t.Fatal(err)
				}
				if c.next != nil {
					if _, err := r.as.Map(*c.next); err != nil {
						t.Fatal(err)
					}
				}
				for _, w := range []struct {
					at   mem.Addr
					data string
				}{{cross, crossing + "\x00"}, {edge, "sixteen bytes..."}, {warm, "warm"}} {
					if err := r.as.WriteAt(w.at, []byte(w.data)); err != nil {
						t.Fatal(err)
					}
				}
				if c.taint {
					// Two tags on either side of the page boundary, the
					// NUL included, and one just before the fault.
					for _, s := range []struct {
						at  mem.Addr
						n   int
						tag mem.Taint
					}{{cross + 2, 3, mem.TaintNetwork}, {cross + 21, 3, mem.TaintFile}, {edge + 14, 2, mem.TaintNetwork}} {
						if err := r.as.SetTaint(s.at, s.n, s.tag); err != nil {
							t.Fatal(err)
						}
					}
				}
				var out cstringOutcome
				r.m.SetTaintSink(taintSinkFunc(func(ip, addr mem.Addr) { out.Sink = append(out.Sink, taintCall{ip, addr}) }))
				th := newTestThread(t, r, "t")
				th.SetBackground(c.background)
				th.pkru = c.pkru
				th.ip = 0x400010

				cycles, walled, resident := r.m.Counter().Cycles(), wall.Cycles(), r.as.ResidentPages()
				err := th.Run(func(th *Thread) { out.Bytes = string(readString(th, c.addr, c.max)) })
				out.Cycles = r.m.Counter().Cycles() - cycles
				out.Wall = wall.Cycles() - walled
				if err != nil && !errors.As(err, &out.Fault) {
					t.Fatalf("read failed without a memory fault: %v", err)
				}
				out.Resident = r.as.ResidentPages()
				out.FaultIn = out.Resident - resident
				out.Acc = th.TaintAcc()
				return out
			}
			want := read(loadEachByte)
			got := read(func(th *Thread, addr mem.Addr, max int) []byte {
				return th.AppendCString(nil, addr, max)
			})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("AppendCString:\n got  %+v\n want %+v", got, want)
			}
			var kind mem.FaultKind
			if want.Fault != nil {
				kind = want.Fault.Kind
			}
			if kind != c.wantFault || want.FaultIn != c.faultsIn {
				t.Errorf("the case faults with %v and faults in %d pages, built for %v and %d", kind, want.FaultIn, c.wantFault, c.faultsIn)
			}
		})
	}
}
