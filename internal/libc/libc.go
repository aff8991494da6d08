// Package libc implements the C library of the simulated system: the 35+
// calls the sMVX monitor simulates for the follower variant (Section 4),
// spanning all three emulation categories of Table 1 plus the user-space
// calls (allocator, string and memory functions) each variant executes
// locally.
//
// LibC implements machine.LibcDispatcher, so applications reach it through
// the PLT: unpatched GOT slots dispatch straight here, patched slots detour
// through the monitor first, and the monitor calls back in here as the
// "actual_libc_call()" of Figure 4.
package libc

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"

	"smvx/internal/obs"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// Neg1 is the uint64 encoding of the C return value -1.
const Neg1 = ^uint64(0)

// CStrMax bounds C string reads.
const CStrMax = 4096

// LibC is one libc instance bound to a kernel process.
type LibC struct {
	proc    *kernel.Process
	counter *clock.Counter
	costs   clock.CostTable

	mu    sync.Mutex
	heaps map[int64]*heapAlloc
	rng   *rand.Rand

	calls [len(funcs)]atomic.Uint64 // per row of the call table
	total atomic.Uint64

	plt PLTRows // the bound image's PLT slots (BindPLT)

	rec     *obs.Recorder
	cells   [len(funcs)]rowCells // per row of the call table, resolved by SetRecorder
	ledHook func(v obs.Variant, f *Func, d clock.Cycles)
}

// rowCells are the histograms one row's instrumented call observes: its
// CycleMetric and its CategoryCycleMetric.
type rowCells struct {
	cycles, category *obs.HistCell
}

var _ machine.LibcDispatcher = (*LibC)(nil)

// New creates a libc over proc, charging user-space work to counter.
func New(proc *kernel.Process, counter *clock.Counter, costs clock.CostTable, seed int64) *LibC {
	return &LibC{
		proc:    proc,
		counter: counter,
		costs:   costs,
		heaps:   make(map[int64]*heapAlloc),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Proc returns the kernel process this libc runs against.
func (l *LibC) Proc() *kernel.Process { return l.proc }

// SetRecorder attaches a flight recorder; every dispatched call then is
// recorded as one libc-call event (see CallFunc) and observed in a per-call
// cycle histogram. The histograms of
// every row of the call table are resolved here, once. Must be called
// before threads run; a nil recorder (the default) keeps the call path
// free of any observability work.
func (l *LibC) SetRecorder(r *obs.Recorder) {
	l.rec = r
	m := r.Metrics()
	for i := range funcs {
		l.cells[i] = rowCells{m.HistCell(funcs[i].CycleMetric), m.HistCell(funcs[i].CategoryCycleMetric)}
	}
}

// BindPLT resolves the PLT layout of the image the libc serves (its
// PLTSlots) to call-table rows, so that an unpatched PLT call finds its
// row by slot. Must be called before threads run; without it every call
// looks its row up by name.
func (l *LibC) BindPLT(names []string) { l.plt = NewPLTRows(names) }

// SetLedgerHook attaches a per-call cost-ledger callback: after every
// dispatched call, hook(v, f, d) receives the calling thread's variant,
// the call's row and its measured cycle delta. The monitor installs it to charge
// the ledger's libc phase — libc itself never imports the ledger. Must be
// set before threads run; nil (the default) keeps the call path hook-free.
func (l *LibC) SetLedgerHook(hook func(v obs.Variant, f *Func, d clock.Cycles)) {
	l.ledHook = hook
}

// RegisterHeap attaches an allocator for the variant whose symbol bias is
// bias, serving malloc from [base, base+size). The leader registers bias 0
// at startup; the monitor registers the follower's shifted heap at variant
// creation (the follower "can directly access its newly allocated memory
// blocks", Section 3.4).
func (l *LibC) RegisterHeap(bias int64, base mem.Addr, size uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.heaps[bias] = newHeapAlloc(base, size)
}

// CloneHeap installs, for the variant at bias toBias, a shifted copy of the
// fromBias variant's allocator state. The sMVX monitor calls this during
// variant creation so the follower can free or reuse blocks the leader
// allocated before mvx_start(), and allocate fresh blocks independently
// afterwards (Section 3.4).
func (l *LibC) CloneHeap(fromBias, toBias, delta int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	src, ok := l.heaps[fromBias]
	if !ok {
		return fmt.Errorf("libc: clone heap: no heap at bias %#x", fromBias)
	}
	l.heaps[toBias] = src.cloneShifted(delta)
	return nil
}

// DropHeap removes the allocator for a bias (variant teardown).
func (l *LibC) DropHeap(bias int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.heaps, bias)
}

// Heap returns the allocator for a bias, or nil.
func (l *LibC) Heap(bias int64) *heapAlloc {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.heaps[bias]
}

// HeapLiveBytes reports the live allocation volume for a variant.
func (l *LibC) HeapLiveBytes(bias int64) uint64 {
	h := l.Heap(bias)
	if h == nil {
		return 0
	}
	return h.liveBytes()
}

// HeapBounds reports the heap region bounds registered for a variant
// (zero values if none).
func (l *LibC) HeapBounds(bias int64) (mem.Addr, uint64) {
	h := l.Heap(bias)
	if h == nil {
		return 0, 0
	}
	return h.base, h.size
}

// HeapWatermark reports the highest heap address handed out for a variant,
// the upper bound of the variant-creation heap scan.
func (l *LibC) HeapWatermark(bias int64) mem.Addr {
	h := l.Heap(bias)
	if h == nil {
		return 0
	}
	return h.watermark()
}

// CallCount returns how many times the named libc function was called.
func (l *LibC) CallCount(name string) uint64 {
	if f := Lookup(name); f.id >= 0 {
		return l.calls[f.id].Load()
	}
	return 0
}

// TotalCalls returns the total libc calls dispatched — the numerator of the
// libc:syscall ratio in Figure 7.
func (l *LibC) TotalCalls() uint64 { return l.total.Load() }

// ResetCounts zeroes the call counters.
func (l *LibC) ResetCounts() {
	for i := range l.calls {
		l.calls[i].Store(0)
	}
	l.total.Store(0)
}

// clampLen converts a size_t length argument to int, bounding it at the
// kernel's socket-buffer maximum so a "negative length cast to huge
// size_t" (CVE-2013-2028) behaves as the real kernel does: the read is
// accepted and bounded by available data, not rejected.
func clampLen(n uint64) int {
	const sockBufMax = 1 << 20
	if n > sockBufMax {
		return sockBufMax
	}
	return int(n)
}

// fail sets errno and returns C's -1.
func fail(t *machine.Thread, e kernel.Errno) uint64 {
	t.SetErrno(e)
	return Neg1
}

// ok clears errno and returns v.
func ok(t *machine.Thread, v uint64) uint64 {
	t.SetErrno(kernel.OK)
	return v
}

// Call dispatches one libc call, made through PLT slot slot (pass -1 for
// none). Pointer arguments are simulated addresses in the calling thread's
// variant space. Unknown names crash the thread, as an unresolvable PLT
// entry would.
func (l *LibC) Call(t *machine.Thread, slot int, name string, args []uint64) uint64 {
	return l.CallFunc(t, l.plt.Row(slot, name), args)
}

// CallFunc is Call for a caller that already holds the call's row. With a
// recorder attached, a call is recorded once, as one obs.EvLibcCall when
// it is over: here, unless the thread's call is timed by an interposed
// PLT pass (machine.LibcCall), which then records it with the pass and
// only takes its entry and exit from here.
func (l *LibC) CallFunc(t *machine.Thread, f *Func, args []uint64) uint64 {
	r := l.rec
	if r == nil {
		if l.ledHook == nil {
			return l.dispatch(t, f, args)
		}
		return l.measured(t, f, args)
	}
	lc := t.LibcCall()
	if lc.Open {
		lc.Enter = r.Now()
		ret := l.measured(t, f, args)
		lc.Exit, lc.Exited = r.Now(), true
		return ret
	}
	e := obs.Event{
		Kind: obs.EvLibcCall, Variant: obs.Variant(t.Variant()), TID: t.TID(),
		Fn: t.Fn(), Name: f.Name, Flags: obs.FlagUnreturned,
	}
	if len(args) > 0 {
		e.Arg0 = args[0]
	}
	if len(args) > 1 {
		e.Arg1 = args[1]
	}
	e.TS = r.Now()
	defer func() {
		// A call that unwinds is recorded as it unwinds.
		e.Dur = r.Now() - e.TS
		r.RecordEvent(&e)
	}()
	e.Ret = l.measured(t, f, args)
	e.Flags = 0
	return e.Ret
}

// measured dispatches one call and feeds its cycle delta to the ledger
// hook and, with a recorder, the row's histograms. The virtual clock is
// shared between concurrently executing variants, so samples include any
// cycles the other variant charged meanwhile — the histograms are
// indicative, not exact per-call costs.
func (l *LibC) measured(t *machine.Thread, f *Func, args []uint64) uint64 {
	start := l.counter.Cycles()
	ret := l.dispatch(t, f, args)
	d := l.counter.Cycles() - start
	if hook := l.ledHook; hook != nil {
		hook(obs.Variant(t.Variant()), f, d)
	}
	switch {
	case l.rec == nil:
	case f.id >= 0:
		c := &l.cells[f.id]
		c.cycles.Observe(uint64(d))
		c.category.Observe(uint64(d))
	default:
		m := l.rec.Metrics()
		m.Observe(f.CycleMetric, uint64(d))
		m.Observe(f.CategoryCycleMetric, uint64(d))
	}
	return ret
}

// dispatch is the uninstrumented call path.
func (l *LibC) dispatch(t *machine.Thread, f *Func, args []uint64) uint64 {
	l.total.Add(1)
	if f.id >= 0 {
		l.calls[f.id].Add(1)
	}
	t.ChargeUser(l.costs.LibcBase)
	arg := func(i int) uint64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	switch f.Name {
	case "open":
		path := t.CString(mem.Addr(arg(0)), CStrMax)
		fd, e := l.proc.Open(path, int(arg(1)))
		if e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, uint64(fd))
	case "close":
		if e := l.proc.Close(int(arg(0))); e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, 0)
	case "read":
		return l.doRead(t, int(arg(0)), mem.Addr(arg(1)), clampLen(arg(2)), false)
	case "recv":
		return l.doRead(t, int(arg(0)), mem.Addr(arg(1)), clampLen(arg(2)), true)
	case "write":
		buf, err := l.readBuf(t, mem.Addr(arg(1)), int(arg(2)))
		if err != nil {
			return fail(t, kernel.EFAULT)
		}
		n, e := l.proc.Write(int(arg(0)), buf)
		if e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, uint64(n))
	case "send":
		buf, err := l.readBuf(t, mem.Addr(arg(1)), int(arg(2)))
		if err != nil {
			return fail(t, kernel.EFAULT)
		}
		n, e := l.proc.Send(int(arg(0)), buf)
		if e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, uint64(n))
	case "writev":
		return l.doWritev(t, int(arg(0)), mem.Addr(arg(1)), int(arg(2)))
	case "stat":
		path := t.CString(mem.Addr(arg(0)), CStrMax)
		st, e := l.proc.StatPath(path)
		if e != kernel.OK {
			return fail(t, e)
		}
		l.writeStat(t, mem.Addr(arg(1)), st)
		return ok(t, 0)
	case "fstat":
		st, e := l.proc.Fstat(int(arg(0)))
		if e != kernel.OK {
			return fail(t, e)
		}
		l.writeStat(t, mem.Addr(arg(1)), st)
		return ok(t, 0)
	case "sendfile":
		n, e := l.proc.Sendfile(int(arg(0)), int(arg(1)), int(arg(3)))
		if e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, uint64(n))
	case "mkdir":
		path := t.CString(mem.Addr(arg(0)), CStrMax)
		if e := l.proc.Mkdir(path); e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, 0)
	case "socket":
		fd, e := l.proc.Socket()
		if e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, uint64(fd))
	case "bind":
		if e := l.proc.Bind(int(arg(0)), uint16(arg(1))); e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, 0)
	case "listen":
		if e := l.proc.Listen(int(arg(0)), int(arg(1))); e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, 0)
	case "connect":
		if e := l.proc.Connect(int(arg(0)), uint16(arg(1))); e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, 0)
	case "accept4":
		fd, e := l.proc.Accept4(int(arg(0)))
		if e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, uint64(fd))
	case "shutdown":
		if e := l.proc.Shutdown(int(arg(0)), int(arg(1))); e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, 0)
	case "setsockopt":
		if e := l.proc.Setsockopt(int(arg(0)), int64(arg(1)), int64(arg(2))); e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, 0)
	case "getsockopt":
		v, e := l.proc.Getsockopt(int(arg(0)), int64(arg(1)))
		if e != kernel.OK {
			return fail(t, e)
		}
		l.write64(t, mem.Addr(arg(2)), uint64(v))
		return ok(t, 0)
	case "ioctl":
		v, e := l.proc.Ioctl(int(arg(0)), int64(arg(1)))
		if e != kernel.OK {
			return fail(t, e)
		}
		if p := mem.Addr(arg(2)); p != 0 {
			l.write64(t, p, uint64(v))
		}
		return ok(t, 0)
	case "epoll_create":
		fd, e := l.proc.EpollCreate()
		if e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, uint64(fd))
	case "epoll_ctl":
		var events uint32
		var data uint64
		if op := int(arg(1)); op != kernel.EpollCtlDel {
			evPtr := mem.Addr(arg(3))
			events = uint32(l.read64(t, evPtr))
			data = l.read64(t, evPtr+8)
		}
		if e := l.proc.EpollCtl(int(arg(0)), int(arg(1)), int(arg(2)), events, data); e != kernel.OK {
			return fail(t, e)
		}
		return ok(t, 0)
	case "epoll_wait":
		evs, e := l.proc.EpollWait(int(arg(0)), int(arg(2)), int(int64(arg(3))))
		if e != kernel.OK {
			return fail(t, e)
		}
		l.writeEpollEvents(t, mem.Addr(arg(1)), evs)
		return ok(t, uint64(len(evs)))
	case "epoll_pwait":
		evs, e := l.proc.EpollPwait(int(arg(0)), int(arg(2)), int(int64(arg(3))), arg(4))
		if e != kernel.OK {
			return fail(t, e)
		}
		l.writeEpollEvents(t, mem.Addr(arg(1)), evs)
		return ok(t, uint64(len(evs)))
	case "gettimeofday":
		tod, e := l.proc.Gettimeofday()
		if e != kernel.OK {
			return fail(t, e)
		}
		tv := mem.Addr(arg(0))
		l.write64(t, tv, uint64(tod.Sec))
		l.write64(t, tv+8, uint64(tod.Usec))
		return ok(t, 0)
	case "time":
		tod, e := l.proc.Gettimeofday()
		if e != kernel.OK {
			return fail(t, e)
		}
		if p := mem.Addr(arg(0)); p != 0 {
			l.write64(t, p, uint64(tod.Sec))
		}
		return ok(t, uint64(tod.Sec))
	case "localtime_r":
		sec := int64(l.read64(t, mem.Addr(arg(0))))
		bd := l.proc.Localtime(sec)
		out := mem.Addr(arg(1))
		for i, v := range []int{bd.Sec, bd.Min, bd.Hour, bd.MDay, bd.Mon, bd.Year, bd.WDay, bd.YDay} {
			l.write64(t, out+mem.Addr(i*8), uint64(int64(v)))
		}
		return ok(t, arg(1))
	case "random":
		l.mu.Lock()
		v := uint64(l.rng.Int63())
		l.mu.Unlock()
		return ok(t, v)
	case "malloc":
		return ok(t, uint64(l.malloc(t, arg(0))))
	case "calloc":
		n := arg(0) * arg(1)
		addr := l.malloc(t, n)
		if addr != 0 {
			t.Memset(addr, 0, int(n))
		}
		return ok(t, uint64(addr))
	case "free":
		l.freeCall(t, mem.Addr(arg(0)))
		return ok(t, 0)
	case "realloc":
		return ok(t, uint64(l.realloc(t, mem.Addr(arg(0)), arg(1))))
	case "memcpy":
		t.Memcpy(mem.Addr(arg(0)), mem.Addr(arg(1)), int(arg(2)))
		return ok(t, arg(0))
	case "memset":
		t.Memset(mem.Addr(arg(0)), byte(arg(1)), int(arg(2)))
		return ok(t, arg(0))
	case "strlen":
		var s cstrBuf
		return ok(t, uint64(len(t.AppendCString(s[:0], mem.Addr(arg(0)), CStrMax))))
	case "strcmp":
		return ok(t, strncmp(t, mem.Addr(arg(0)), mem.Addr(arg(1)), CStrMax))
	case "strncmp":
		// A size_t bound past CStrMax, SIZE_MAX included, reads no further.
		n := CStrMax
		if arg(2) < CStrMax {
			n = int(arg(2))
		}
		return ok(t, strncmp(t, mem.Addr(arg(0)), mem.Addr(arg(1)), n))
	case "atoi":
		var s [32]byte
		return ok(t, uint64(atoi(t.AppendCString(s[:0], mem.Addr(arg(0)), len(s)))))
	case "snprintf":
		return l.snprintf(t, args)
	default:
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(),
			Err: fmt.Errorf("libc: unresolved function %q", f.Name)})
	}
}

// doRead implements read(2)/recv(2): the kernel returns the received
// bytes, libc copies them into the application's (simulated) buffer and —
// when the descriptor is a socket — tags them as network-tainted, making
// recv the taint source of the libdft workflow (Section 3.2).
func (l *LibC) doRead(t *machine.Thread, fd int, buf mem.Addr, n int, recvCall bool) uint64 {
	if n < 0 {
		return fail(t, kernel.EINVAL)
	}
	// The kernel's socket buffer bounds one read regardless of the length
	// argument — which is why CVE-2013-2028's miscast "huge size_t" recv
	// still returns only the attacker's payload length (and still writes
	// it past the 4KiB discard buffer). A socket read stages nothing: the
	// kernel hands back only the bytes it delivers.
	const sockBufMax = 1 << 20
	if n > sockBufMax {
		n = sockBufMax
	}
	got, e := l.proc.Receive(fd, n, recvCall)
	if e != kernel.OK {
		return fail(t, e)
	}
	as := t.Machine().AddressSpace()
	if err := as.CheckedWriteAt(buf, got, t.PKRU()); err != nil {
		// The kernel writing past the buffer's region is the simulated
		// SIGSEGV; surface it as a crash like the hardware would.
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: err})
	}
	if l.proc.IsSocket(fd) {
		if err := as.SetTaint(buf, len(got), mem.TaintNetwork); err != nil {
			panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: err})
		}
	}
	return ok(t, uint64(len(got)))
}

func (l *LibC) doWritev(t *machine.Thread, fd int, iov mem.Addr, iovcnt int) uint64 {
	bufs := make([][]byte, 0, iovcnt)
	for i := 0; i < iovcnt; i++ {
		base := mem.Addr(l.read64(t, iov+mem.Addr(i*16)))
		length := int(l.read64(t, iov+mem.Addr(i*16+8)))
		b, err := l.readBuf(t, base, length)
		if err != nil {
			return fail(t, kernel.EFAULT)
		}
		bufs = append(bufs, b)
	}
	n, e := l.proc.Writev(fd, bufs)
	if e != kernel.OK {
		return fail(t, e)
	}
	return ok(t, uint64(n))
}

func (l *LibC) writeStat(t *machine.Thread, addr mem.Addr, st kernel.Stat) {
	l.write64(t, addr, uint64(st.Size))
	l.write64(t, addr+8, uint64(st.Mode))
	l.write64(t, addr+16, uint64(st.MTimeUnix))
}

func (l *LibC) writeEpollEvents(t *machine.Thread, addr mem.Addr, evs []kernel.EpollEvent) {
	for i, ev := range evs {
		l.write64(t, addr+mem.Addr(i*16), uint64(ev.Events))
		l.write64(t, addr+mem.Addr(i*16+8), ev.Data)
	}
}

func (l *LibC) readBuf(t *machine.Thread, addr mem.Addr, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("libc: negative length")
	}
	buf := make([]byte, n)
	if err := t.Machine().AddressSpace().CheckedReadAt(addr, buf, t.PKRU()); err != nil {
		return nil, err
	}
	return buf, nil
}

func (l *LibC) read64(t *machine.Thread, addr mem.Addr) uint64 {
	return t.Load64(addr)
}

func (l *LibC) write64(t *machine.Thread, addr mem.Addr, v uint64) {
	b := []byte{
		byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
		byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56),
	}
	if err := t.Machine().AddressSpace().CheckedWriteAt(addr, b, t.PKRU()); err != nil {
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: err})
	}
}

func (l *LibC) malloc(t *machine.Thread, n uint64) mem.Addr {
	h := l.Heap(t.Bias())
	if h == nil {
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(),
			Err: fmt.Errorf("libc: malloc with no heap registered for bias %#x", t.Bias())})
	}
	return h.alloc(n)
}

func (l *LibC) freeCall(t *machine.Thread, addr mem.Addr) {
	if addr == 0 {
		return // free(NULL) is a no-op
	}
	h := l.Heap(t.Bias())
	if h == nil {
		return
	}
	if err := h.release(addr); err != nil {
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: err})
	}
}

func (l *LibC) realloc(t *machine.Thread, old mem.Addr, n uint64) mem.Addr {
	if old == 0 {
		return l.malloc(t, n)
	}
	h := l.Heap(t.Bias())
	if h == nil {
		return 0
	}
	oldSize := h.sizeOf(old)
	nw := l.malloc(t, n)
	if nw == 0 {
		return 0
	}
	copyLen := oldSize
	if n < copyLen {
		copyLen = n
	}
	if copyLen > 0 {
		t.Memcpy(nw, old, int(copyLen))
	}
	l.freeCall(t, old)
	return nw
}

// cstrBuf is a stack buffer for one C string read; the evaluation
// applications' strings fit, and a longer one spills to the heap.
type cstrBuf [256]byte

// strncmp compares the C strings at a and b, each read up to its NUL or max
// bytes. The simulated call reads all of a, then all of b, before comparing.
func strncmp(t *machine.Thread, a, b mem.Addr, max int) uint64 {
	var sa, sb cstrBuf
	x := t.AppendCString(sa[:0], a, max)
	y := t.AppendCString(sb[:0], b, max)
	return uint64(int64(bytes.Compare(x, y)))
}

// snprintf supports the %s, %d and %x verbs — enough for the evaluation
// applications' header formatting.
func (l *LibC) snprintf(t *machine.Thread, args []uint64) uint64 {
	if len(args) < 3 {
		return fail(t, kernel.EINVAL)
	}
	dst := mem.Addr(args[0])
	size := int(args[1])
	var fbuf, obuf cstrBuf
	format := t.AppendCString(fbuf[:0], mem.Addr(args[2]), CStrMax)
	out := obuf[:0]
	argi := 3
	nextArg := func() uint64 {
		if argi < len(args) {
			v := args[argi]
			argi++
			return v
		}
		return 0
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 >= len(format) {
			out = append(out, c)
			continue
		}
		i++
		switch format[i] {
		case 's':
			out = t.AppendCString(out, mem.Addr(nextArg()), CStrMax)
		case 'd':
			out = strconv.AppendInt(out, int64(nextArg()), 10)
		case 'x':
			out = strconv.AppendUint(out, nextArg(), 16)
		default:
			out = append(out, format[i])
		}
	}
	if len(out) >= size && size > 0 {
		out = out[:size-1]
	}
	n := len(out)
	t.WriteBytes(dst, append(out, 0))
	return ok(t, uint64(n))
}

func atoi(s []byte) int64 {
	s = bytes.TrimSpace(s)
	neg := false
	if len(s) > 0 && s[0] == '-' {
		neg = true
		s = s[1:]
	} else if len(s) > 0 && s[0] == '+' {
		s = s[1:]
	}
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		return -v
	}
	return v
}
