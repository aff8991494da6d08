package machine

import (
	"errors"
	"strings"
	"testing"

	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/mem"
)

// fakeLibc records calls and returns canned values.
type fakeLibc struct {
	calls []string
	ret   uint64
}

func (f *fakeLibc) Call(t *Thread, slot int, name string, args []uint64) uint64 {
	f.calls = append(f.calls, name)
	return f.ret
}

// fakeInterposer records intercepted calls.
type fakeInterposer struct {
	calls []string
	inner LibcDispatcher
	t     *testing.T
}

func (f *fakeInterposer) Intercept(t *Thread, slot int, name string, args []uint64) uint64 {
	f.calls = append(f.calls, name)
	return f.inner.Call(t, slot, name, args)
}

type testRig struct {
	img  *image.Image
	prog *Program
	m    *Machine
	libc *fakeLibc
	as   *mem.AddressSpace
}

func newRig(t testing.TB) *testRig {
	t.Helper()
	img := image.NewBuilder("app", 0x400000).
		AddFunc("main", 128).
		AddFunc("parent", 128).
		AddFunc("vuln", 256).
		AddFunc("helper", 64).
		AddData("g_counter", 8, nil).
		AddData("g_msg", 16, []byte("hi")).
		AddBSS("g_scratch", 256).
		NeedLibc("read", "write", "mkdir").
		Build()

	ctr := clock.NewCounter()
	costs := clock.DefaultCosts()
	as := mem.NewAddressSpace(ctr, costs)
	if err := img.MapInto(as, ""); err != nil {
		t.Fatal(err)
	}
	k := kernel.New(costs, 1)
	proc := k.NewProcess(ctr)
	libc := &fakeLibc{}
	prog := NewProgram(img)
	m := New(prog, as, proc, libc, ctr, costs)
	return &testRig{img: img, prog: prog, m: m, libc: libc, as: as}
}

func TestDefineUnknownSymbolFails(t *testing.T) {
	r := newRig(t)
	if err := r.prog.Define("no_such_fn", func(*Thread, []uint64) uint64 { return 0 }); err == nil {
		t.Error("Define of unknown symbol should fail")
	}
	if err := r.prog.Define("main", func(*Thread, []uint64) uint64 { return 0 }); err != nil {
		t.Errorf("Define(main): %v", err)
	}
}

func TestCallReturnsValueAndPassesArgs(t *testing.T) {
	r := newRig(t)
	r.prog.MustDefine("helper", func(t *Thread, args []uint64) uint64 {
		return args[0] + args[1]
	})
	r.prog.MustDefine("main", func(t *Thread, args []uint64) uint64 {
		return t.Call("helper", 40, 2)
	})
	th, err := r.m.NewThread("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	if err := th.Run(func(t *Thread) { got = t.Call("main") }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 42 {
		t.Errorf("main() = %d, want 42", got)
	}
}

func TestArgumentRegistersMirrored(t *testing.T) {
	r := newRig(t)
	r.prog.MustDefine("helper", func(t *Thread, args []uint64) uint64 {
		if t.Reg(RDI) != 1 || t.Reg(RSI) != 2 || t.Reg(RDX) != 3 {
			return 0
		}
		return 1
	})
	th, _ := r.m.NewThread("t", 0)
	var ok uint64
	_ = th.Run(func(t *Thread) { ok = t.Call("helper", 1, 2, 3) })
	if ok != 1 {
		t.Error("argument registers not mirrored per SysV convention")
	}
	// RAX carries the argument count (variadic convention).
	r.prog.MustDefine("main", func(t *Thread, args []uint64) uint64 { return t.Reg(RAX) })
	var rax uint64
	_ = th.Run(func(t *Thread) { rax = t.Call("main", 9, 9, 9, 9) })
	if rax != 4 {
		t.Errorf("RAX at entry = %d, want 4 (arg count)", rax)
	}
}

func TestGlobalsLoadStore(t *testing.T) {
	r := newRig(t)
	r.prog.MustDefine("main", func(t *Thread, args []uint64) uint64 {
		g := t.Global("g_counter")
		t.Store64(g, 7)
		return t.Load64(g) + uint64(t.Load8(t.Global("g_msg")))
	})
	th, _ := r.m.NewThread("t", 0)
	var got uint64
	if err := th.Run(func(t *Thread) { got = t.Call("main") }); err != nil {
		t.Fatal(err)
	}
	if got != 7+'h' {
		t.Errorf("got %d, want %d", got, 7+'h')
	}
}

// TestResolvedGlobals: a global resolved once gives each thread its own
// view's address, the bias added on use, and one the image lacks faults
// the thread that uses it, as Thread.Global does.
func TestResolvedGlobals(t *testing.T) {
	r := newRig(t)
	counter, ghost := r.prog.Global("g_counter"), r.prog.Global("g_ghost")
	sym, _ := r.img.Lookup("g_counter")
	for _, bias := range []int64{0, 0x1000_0000} {
		th, err := r.m.NewThread("t", bias)
		if err != nil {
			t.Fatal(err)
		}
		var got, want mem.Addr
		if err := th.Run(func(t *Thread) { got, want = counter.In(t), t.Global("g_counter") }); err != nil {
			t.Fatal(err)
		}
		if got != want || got != mem.Addr(int64(sym.Addr)+bias) {
			t.Errorf("bias %#x: In = %#x, Thread.Global = %#x, want %#x", bias, got, want, int64(sym.Addr)+bias)
		}
	}
	th, _ := r.m.NewThread("t", 0)
	err := th.Run(func(t *Thread) { ghost.In(t) })
	var crash *Crash
	if !errors.As(err, &crash) || !strings.Contains(err.Error(), `unresolved symbol "g_ghost"`) {
		t.Errorf("using an unresolved global = %v, want a crash naming it", err)
	}
}

func TestUnresolvedSymbolCrashes(t *testing.T) {
	r := newRig(t)
	th, _ := r.m.NewThread("t", 0)
	err := th.Run(func(t *Thread) { t.Call("ghost") })
	var crash *Crash
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v, want Crash", err)
	}
	if !strings.Contains(crash.Error(), "ghost") {
		t.Errorf("crash message: %v", crash)
	}
}

func TestLibcDirectDispatch(t *testing.T) {
	r := newRig(t)
	r.libc.ret = 99
	r.prog.MustDefine("main", func(t *Thread, args []uint64) uint64 {
		return t.Libc("write", 1, 0x1000, 5)
	})
	th, _ := r.m.NewThread("t", 0)
	var got uint64
	if err := th.Run(func(t *Thread) { got = t.Call("main") }); err != nil {
		t.Fatal(err)
	}
	if got != 99 || len(r.libc.calls) != 1 || r.libc.calls[0] != "write" {
		t.Errorf("libc dispatch: got=%d calls=%v", got, r.libc.calls)
	}
	if th.PLTCalls() != 1 {
		t.Errorf("PLTCalls = %d, want 1", th.PLTCalls())
	}
}

func TestLibcInterposerAfterGOTPatch(t *testing.T) {
	r := newRig(t)
	ipo := &fakeInterposer{inner: r.libc, t: t}
	r.m.SetInterposer(ipo)

	// Patch the GOT slot for "read" to a trampoline address, as the sMVX
	// monitor's setup_mvx does.
	slot, _ := r.img.PLTSlot("read")
	if err := r.as.Write64(r.img.GOTSlotAddr(slot), 0x7000_0000); err != nil {
		t.Fatal(err)
	}

	r.prog.MustDefine("main", func(t *Thread, args []uint64) uint64 {
		t.Libc("read", 3, 0x1000, 64) // patched -> interposer
		t.Libc("write", 1, 0x1000, 5) // unpatched -> direct
		return 0
	})
	th, _ := r.m.NewThread("t", 0)
	if err := th.Run(func(t *Thread) { t.Call("main") }); err != nil {
		t.Fatal(err)
	}
	if len(ipo.calls) != 1 || ipo.calls[0] != "read" {
		t.Errorf("interposer calls = %v", ipo.calls)
	}
	if len(r.libc.calls) != 2 {
		t.Errorf("libc calls = %v (interposer forwards + direct)", r.libc.calls)
	}
}

func TestPatchedGOTWithoutInterposerCrashes(t *testing.T) {
	r := newRig(t)
	slot, _ := r.img.PLTSlot("read")
	_ = r.as.Write64(r.img.GOTSlotAddr(slot), 0x7000_0000)
	r.prog.MustDefine("main", func(t *Thread, args []uint64) uint64 {
		return t.Libc("read", 0, 0, 0)
	})
	th, _ := r.m.NewThread("t", 0)
	if err := th.Run(func(t *Thread) { t.Call("main") }); err == nil {
		t.Error("patched GOT with no interposer should crash")
	}
}

func TestStackSmashEntersGadgetInterpreterAndFaults(t *testing.T) {
	r := newRig(t)
	r.prog.MustDefine("vuln", func(t *Thread, args []uint64) uint64 {
		buf := t.Alloca(32)
		// Overflow: write 48 bytes into a 32-byte buffer, clobbering the
		// saved return address with a bogus code address.
		payload := make([]byte, 48)
		for i := 0; i+8 <= len(payload); i += 8 {
			copy(payload[i:], le64bytes(0xdead0000))
		}
		t.WriteBytes(buf, payload)
		return 0
	})
	r.prog.MustDefine("parent", func(t *Thread, args []uint64) uint64 {
		return t.Call("vuln")
	})
	th, _ := r.m.NewThread("t", 0)
	err := th.Run(func(t *Thread) { t.Call("parent") })
	var fe *mem.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want FaultError from gadget interpreter", err)
	}
	if fe.Addr != 0xdead0000 {
		t.Errorf("fault addr = %s, want 0xdead0000", fe.Addr)
	}
}

func TestGadgetChainPopRet(t *testing.T) {
	r := newRig(t)
	// Find a real pop rdi; ret gadget in generated .text.
	vuln, _ := r.img.Lookup("vuln")
	body := make([]byte, vuln.Size)
	if err := r.as.FetchCode(vuln.Addr, body); err != nil {
		t.Fatal(err)
	}
	gadget := mem.Addr(0)
	for i := 0; i+1 < len(body); i++ {
		if body[i] == image.OpPopRDI && body[i+1] == image.OpRet {
			gadget = vuln.Addr + mem.Addr(i)
			break
		}
	}
	if gadget == 0 {
		t.Skip("no pop rdi; ret gadget in this body")
	}

	r.prog.MustDefine("vuln", func(t *Thread, args []uint64) uint64 {
		buf := t.Alloca(16)
		// Chain: [filler x2][gadget][value-for-rdi][0 -> fault ends chain]
		payload := make([]byte, 0, 48)
		payload = append(payload, le64bytes(0x1111)...)
		payload = append(payload, le64bytes(0x2222)...)
		payload = append(payload, le64bytes(uint64(gadget))...)
		payload = append(payload, le64bytes(0x4242)...)
		payload = append(payload, le64bytes(0)...)
		t.WriteBytes(buf, payload)
		return 0
	})
	r.prog.MustDefine("parent", func(t *Thread, args []uint64) uint64 {
		return t.Call("vuln")
	})
	th, _ := r.m.NewThread("t", 0)
	err := th.Run(func(t *Thread) { t.Call("parent") })
	if err == nil {
		t.Fatal("chain should end in a fault")
	}
	if th.Reg(RDI) != 0x4242 {
		t.Errorf("RDI = %#x, want 0x4242 (pop rdi executed)", th.Reg(RDI))
	}
}

func TestExecWindowBlocksForeignCode(t *testing.T) {
	r := newRig(t)
	r.prog.MustDefine("helper", func(t *Thread, args []uint64) uint64 { return 1 })
	th, _ := r.m.NewThread("t", 0)
	// Window excludes the image entirely.
	th.SetExecWindow([2]mem.Addr{0x9000000, 0x9001000})
	err := th.Run(func(t *Thread) { t.Call("helper") })
	var fe *mem.FaultError
	if !errors.As(err, &fe) || fe.Kind != mem.FaultUnmapped {
		t.Fatalf("err = %v, want unmapped fault", err)
	}
	// Window including the image allows the call.
	th2, _ := r.m.NewThread("t2", 0)
	th2.SetExecWindow([2]mem.Addr{0x400000, 0x500000})
	if err := th2.Run(func(t *Thread) { t.Call("helper") }); err != nil {
		t.Errorf("call inside window: %v", err)
	}
}

func TestTraceRecordsBlocks(t *testing.T) {
	r := newRig(t)
	r.prog.MustDefine("main", func(t *Thread, args []uint64) uint64 {
		t.Block("entry")
		t.Block("loop")
		t.Call("helper")
		return 0
	})
	r.prog.MustDefine("helper", func(t *Thread, args []uint64) uint64 {
		t.Block("h")
		return 0
	})
	th, _ := r.m.NewThread("t", 0)
	th.EnableTrace()
	_ = th.Run(func(t *Thread) { t.Call("main") })
	trace := th.Trace()
	want := []TraceEvent{{Fn: "main", Block: "entry"}, {Fn: "main", Block: "loop"}, {Fn: "helper", Block: "h"}}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Errorf("trace[%d] = %v, want %v", i, trace[i], want[i])
		}
	}
}

func TestTaintFlowsThroughMemcpyAndSink(t *testing.T) {
	r := newRig(t)
	r.as.EnableTaint()

	var events []mem.Addr
	r.m.SetTaintSink(taintSinkFunc(func(ip, addr mem.Addr) { events = append(events, ip) }))

	r.prog.MustDefine("main", func(t *Thread, args []uint64) uint64 {
		src := t.Global("g_scratch")
		// Simulate network input landing at src.
		if err := r.as.SetTaint(src, 8, mem.TaintNetwork); err != nil {
			t.fault(err)
		}
		t.At(0x10)
		dst := src + 64
		t.Memcpy(dst, src, 8) // propagates + reports
		t.At(0x20)
		_ = t.Load8(dst) // tainted load reports
		return 0
	})
	th, _ := r.m.NewThread("t", 0)
	if err := th.Run(func(t *Thread) { t.Call("main") }); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("taint events = %d, want >= 2", len(events))
	}
	mainSym, _ := r.img.Lookup("main")
	if events[len(events)-1] != mainSym.Addr+0x20 {
		t.Errorf("last event ip = %s, want %s", events[len(events)-1], mainSym.Addr+0x20)
	}
}

type taintSinkFunc func(ip, addr mem.Addr)

func (f taintSinkFunc) OnTaintedAccess(ip, addr mem.Addr) { f(ip, addr) }

func TestBiasShiftsResolution(t *testing.T) {
	r := newRig(t)
	const delta = int64(0x10000000)
	// Clone .text and .data so the biased thread can execute and store.
	for _, sec := range []string{image.SecText, image.SecData} {
		s, _ := r.img.Section(sec)
		if _, err := r.as.CloneRegionShifted(s.Addr, delta, "follower:"+sec); err != nil {
			t.Fatal(err)
		}
	}
	r.prog.MustDefine("main", func(t *Thread, args []uint64) uint64 {
		g := t.Global("g_counter")
		t.Store64(g, 123)
		return uint64(g)
	})
	th, _ := r.m.NewThread("follower", delta)
	var addr uint64
	if err := th.Run(func(t *Thread) { addr = t.Call("main") }); err != nil {
		t.Fatal(err)
	}
	orig, _ := r.img.Lookup("g_counter")
	if mem.Addr(addr) != mem.Addr(int64(orig.Addr)+delta) {
		t.Errorf("biased global = %#x, want %#x", addr, int64(orig.Addr)+delta)
	}
	// The leader's copy is untouched.
	v, _ := r.as.Read64(orig.Addr)
	if v != 0 {
		t.Errorf("leader g_counter = %d, want 0", v)
	}
	v, _ = r.as.Read64(mem.Addr(int64(orig.Addr) + delta))
	if v != 123 {
		t.Errorf("follower g_counter = %d, want 123", v)
	}
}

func TestCStringAndWriteCString(t *testing.T) {
	r := newRig(t)
	r.prog.MustDefine("main", func(t *Thread, args []uint64) uint64 {
		g := t.Global("g_scratch")
		t.WriteCString(g, "hello")
		if t.CString(g, 64) != "hello" {
			return 0
		}
		// Bounded read stops at max.
		if t.CString(g, 3) != "hel" {
			return 0
		}
		return 1
	})
	th, _ := r.m.NewThread("t", 0)
	var ok uint64
	_ = th.Run(func(t *Thread) { ok = t.Call("main") })
	if ok != 1 {
		t.Error("CString round trip failed")
	}
}

func TestAllocaStackOverflowCrashes(t *testing.T) {
	r := newRig(t)
	r.prog.MustDefine("main", func(t *Thread, args []uint64) uint64 {
		t.Alloca(uint64(defaultStackPages+1) * mem.PageSize)
		return 0
	})
	th, _ := r.m.NewThread("t", 0)
	if err := th.Run(func(t *Thread) { t.Call("main") }); err == nil {
		t.Error("oversized alloca should crash")
	}
}

func TestCallDepthBounded(t *testing.T) {
	r := newRig(t)
	r.prog.MustDefine("main", func(t *Thread, args []uint64) uint64 {
		return t.Call("main")
	})
	th, _ := r.m.NewThreadAt("deep", 999, 0x7f0e_0000_0000, 4096, 0)
	if err := th.Run(func(t *Thread) { t.Call("main") }); err == nil {
		t.Error("infinite recursion should crash, not hang")
	}
}

func TestWRPKRUChargesAndSets(t *testing.T) {
	r := newRig(t)
	th, _ := r.m.NewThread("t", 0)
	before := r.m.Counter().Cycles()
	p := th.PKRU().WithAccessDisabled(3, true)
	th.WRPKRU(p)
	if th.PKRU() != p {
		t.Error("PKRU not updated")
	}
	if r.m.Counter().Cycles()-before != clock.DefaultCosts().WRPKRU {
		t.Error("WRPKRU cost not charged")
	}
}

func TestRunPropagatesRealPanics(t *testing.T) {
	r := newRig(t)
	th, _ := r.m.NewThread("t", 0)
	defer func() {
		if recover() == nil {
			t.Error("non-Crash panic must propagate")
		}
	}()
	_ = th.Run(func(t *Thread) { panic("real bug") })
}

func TestComputeChargesCycles(t *testing.T) {
	r := newRig(t)
	th, _ := r.m.NewThread("t", 0)
	before := r.m.Counter().Cycles()
	th.Compute(1000)
	if got := r.m.Counter().Cycles() - before; got != 1000*clock.DefaultCosts().Instruction {
		t.Errorf("Compute(1000) charged %d", got)
	}
}

func TestArgsBeyondSixGoOnStack(t *testing.T) {
	// x86-64 SysV: integer args 7+ are pushed onto the (simulated) stack —
	// the situation that forces the sMVX trampoline's stack rebuild.
	r := newRig(t)
	r.prog.MustDefine("helper", func(t *Thread, args []uint64) uint64 {
		if len(args) != 8 {
			return 0
		}
		// Args 7 and 8 sit on the stack, pushed in order after the return
		// address: arg7 at sp+8, arg8 at sp.
		arg8 := t.Load64(t.SP())
		arg7 := t.Load64(t.SP() + 8)
		if arg7 != 77 || arg8 != 88 {
			return 0
		}
		return args[6] + args[7]
	})
	th, _ := r.m.NewThread("t", 0)
	var got uint64
	if err := th.Run(func(t *Thread) {
		got = t.Call("helper", 1, 2, 3, 4, 5, 6, 77, 88)
	}); err != nil {
		t.Fatal(err)
	}
	if got != 165 {
		t.Errorf("8-arg call = %d, want 165", got)
	}
}
