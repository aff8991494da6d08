package machine

import (
	"fmt"
	"sync/atomic"

	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/mem"
	"smvx/internal/sim/mpk"
)

// Register indices, following the x86-64 pop-opcode register numbering
// (0x58+rd), so the gadget interpreter can index directly.
const (
	RAX = 0
	RCX = 1
	RDX = 2
	RBX = 3
	RSP = 4
	RBP = 5
	RSI = 6
	RDI = 7
	R8  = 8
	R9  = 9
)

// NumRegs is the size of the simulated integer register file.
const NumRegs = 16

// TraceEvent is one basic-block execution record, used by the
// authentication-discovery trace diff (Section 3.2).
type TraceEvent struct {
	// Fn is the function containing the block.
	Fn string
	// Block is the block label.
	Block string
}

// Crash is the simulated equivalent of the process dying on a signal. It
// carries the underlying fault and where it happened. Crashes unwind via an
// internal panic that Run converts back into an error; the panic never
// escapes this package's API.
type Crash struct {
	// Thread names the crashed thread.
	Thread string
	// IP is the instruction address at the time of the crash.
	IP mem.Addr
	// Err is the underlying fault.
	Err error
}

// Error implements the error interface.
func (c *Crash) Error() string {
	return fmt.Sprintf("thread %s crashed at %s: %v", c.Thread, c.IP, c.Err)
}

// Unwrap exposes the underlying fault to errors.Is/As.
func (c *Crash) Unwrap() error { return c.Err }

// execRange is one allowed-execution interval of a variant's view.
type execRange struct{ lo, hi mem.Addr }

// Thread is one simulated thread: a register file, a call stack in
// simulated memory, a PKRU, and an optional address bias that shifts every
// symbol resolution (zero for the leader variant, the clone delta for the
// follower).
type Thread struct {
	m    *Machine
	tid  int
	name string

	// Bias is added to every symbol and PLT address this thread resolves.
	bias int64
	// variant is the thread's index in its MVX variant set (see Variant).
	variant int

	regs  [NumRegs]uint64
	sp    mem.Addr
	ip    mem.Addr
	fn    string
	errno kernel.Errno

	pkru mpk.PKRU

	// tlb caches the thread's recent address translations; only the owning
	// goroutine touches it.
	tlb mem.TLB

	stackBase mem.Addr
	stackSize uint64

	execWindow []execRange

	// acc is the sticky taint accumulator standing in for per-register
	// taint tags: loads OR the tag of touched bytes into it, stores write
	// it back to memory.
	acc mem.Taint

	traceOn bool
	trace   []TraceEvent

	pltCalls atomic.Uint64

	// background marks threads whose work runs on a spare core (an MVX
	// follower): charged to total CPU but not to wall time.
	background bool

	fnStack []string

	// sampleAcc accumulates charged cycles toward the machine's sampling
	// profiler period (see Machine.ChargeThread); only the owning
	// goroutine touches it.
	sampleAcc clock.Cycles

	// userCycles totals every cycle charged to this thread. Like sampleAcc
	// it is written only from the owning goroutine; other goroutines may
	// read it only across an established happens-before edge (the lockstep
	// IPC channel does this to measure follower lag).
	userCycles clock.Cycles

	// waitCycles totals the virtual cycles this thread spent blocked at a
	// lockstep rendezvous (waiting for its peer variant or for ring
	// space), kept separate from userCycles so overhead accounting can
	// split "work done" from "time spent synchronizing". Owning-goroutine
	// access only, like userCycles.
	waitCycles clock.Cycles

	// argRegs are the argument registers of the thread's current libc
	// call: Libc copies its variadic arguments here, so the caller's
	// argument array stays on the caller's stack, and hands this slice to
	// the fault hook, the dispatcher and the interposer. A consumer must
	// not keep the slice after the call returns. Owning goroutine only.
	argRegs [maxRegArgs]uint64

	// copyBuf stages Memcpy's and Memset's bytes between the address
	// space's read and write. Owning goroutine only.
	copyBuf []byte

	depth int
}

// maxKeptCopy is the largest copy whose staging buffer a thread keeps for
// its next copy; a larger copy stages through a buffer of its own.
const maxKeptCopy = 64 << 10

// maxRegArgs is how many libc arguments fit in the argument registers; a
// call with more gets a heap copy.
const maxRegArgs = 8

// defaultStackPages is the stack size for threads that don't specify one.
const defaultStackPages = 16

// stackTopBase is where thread stacks are laid out, far above any image.
const stackTopBase mem.Addr = 0x7ffd_0000_0000

// NewThread creates a thread with a freshly mapped stack. bias shifts every
// symbol resolution (pass 0 for normal execution).
func (m *Machine) NewThread(name string, bias int64) (*Thread, error) {
	m.mu.Lock()
	tid := m.nextTID
	m.nextTID++
	m.mu.Unlock()
	base := stackTopBase - mem.Addr(uint64(tid)*64*mem.PageSize)
	return m.NewThreadAt(name, tid, base, defaultStackPages, bias)
}

// NewThreadAt creates a thread with its stack mapped at an explicit base,
// used by variant creation to place the follower's stack inside the
// follower's address window.
func (m *Machine) NewThreadAt(name string, tid int, stackBase mem.Addr, stackPages int, bias int64) (*Thread, error) {
	size := uint64(stackPages) * mem.PageSize
	if _, err := m.as.Map(mem.Region{
		Name: "stack:" + name,
		Base: stackBase,
		Size: size,
		Perm: mem.PermRW,
	}); err != nil {
		return nil, fmt.Errorf("machine: thread %s stack: %w", name, err)
	}
	t := &Thread{
		m:         m,
		tid:       tid,
		name:      name,
		bias:      bias,
		stackBase: stackBase,
		stackSize: size,
		// The initial SP sits below the stack top, leaving room for the
		// argv/environment area a real process has there — and letting a
		// smash of the outermost frame overwrite mapped memory instead of
		// faulting at the region edge.
		sp:   stackBase + mem.Addr(size) - 512,
		pkru: mpk.AllowAll,
	}
	return t, nil
}

// TakeBuffers hands t the host buffers of old, a thread that has exited
// and never runs again: the backing arrays of its call stack and
// execution window and its copy staging buffer, so a thread started in
// old's place does not grow them again. No simulated state moves: t keeps
// its own registers, stack, TLB and counters.
func (t *Thread) TakeBuffers(old *Thread) {
	t.fnStack = old.fnStack[:0]
	t.execWindow = old.execWindow[:0]
	t.copyBuf = old.copyBuf
	old.fnStack, old.execWindow, old.copyBuf = nil, nil, nil
}

// AllocTID reserves a fresh thread id for callers that place thread stacks
// themselves via NewThreadAt.
func (m *Machine) AllocTID() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	tid := m.nextTID
	m.nextTID++
	return tid
}

// Name returns the thread name.
func (t *Thread) Name() string { return t.name }

// StackBase returns the lowest address of the thread's stack region.
func (t *Thread) StackBase() mem.Addr { return t.stackBase }

// TID returns the thread id.
func (t *Thread) TID() int { return t.tid }

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// Bias returns the thread's address bias.
func (t *Thread) Bias() int64 { return t.bias }

// SetVariant records the thread's index in its variant set (k for follower
// slot k). Call before the thread runs.
func (t *Thread) SetVariant(k int) { t.variant = k }

// Variant returns the thread's index in its variant set: 0 for the leader
// and any unmonitored thread, k for follower slot k. Trace events, the
// cost ledger and the monitor's per-variant PKRU all read it.
func (t *Thread) Variant() int { return t.variant }

// SetBackground marks the thread as running on a spare core: its work
// counts toward CPU consumption but not wall time.
func (t *Thread) SetBackground(b bool) { t.background = b }

// Background reports whether the thread is marked background.
func (t *Thread) Background() bool { return t.background }

// ChargeUser charges user-space cycles attributed to this thread.
func (t *Thread) ChargeUser(c clock.Cycles) { t.m.ChargeThread(t, c) }

// UserCycles returns the total cycles charged to this thread. Safe to call
// only from the owning goroutine or across a happens-before edge.
func (t *Thread) UserCycles() clock.Cycles { return t.userCycles }

// AddWaitCycles records virtual cycles this thread spent blocked at a
// lockstep rendezvous. Owning-goroutine access only.
func (t *Thread) AddWaitCycles(c clock.Cycles) { t.waitCycles += c }

// WaitCycles returns the accumulated rendezvous wait time. Safe to call
// only from the owning goroutine or across a happens-before edge.
func (t *Thread) WaitCycles() clock.Cycles { return t.waitCycles }

// Fn returns the simulated function the thread is currently executing
// ("" before the first Call). Instrumentation reads it to attribute a
// libc record to its calling function.
func (t *Thread) Fn() string { return t.fn }

// FnStack returns the active simulated call stack (innermost last).
func (t *Thread) FnStack() []string {
	return append([]string(nil), t.fnStack...)
}

// InFunction reports whether name is anywhere on the call stack — used by
// the Figure 8 region-size measurement.
func (t *Thread) InFunction(name string) bool {
	for _, f := range t.fnStack {
		if f == name {
			return true
		}
	}
	return false
}

// SP returns the simulated stack pointer.
func (t *Thread) SP() mem.Addr { return t.sp }

// SetSP overwrites the stack pointer — the monitor's stack pivot uses this
// to switch to its safe stack (Section 3.4).
func (t *Thread) SetSP(sp mem.Addr) { t.sp = sp }

// IP returns the current instruction address.
func (t *Thread) IP() mem.Addr { return t.ip }

// PKRU returns the thread's protection-key rights register.
func (t *Thread) PKRU() mpk.PKRU { return t.pkru }

// WRPKRU updates the thread's PKRU, charging the cost of the unprivileged
// wrpkru instruction.
func (t *Thread) WRPKRU(p mpk.PKRU) {
	t.m.ChargeThread(t, t.m.costs.WRPKRU)
	t.pkru = p
}

// Errno returns the thread's errno, emulated per-variant as the paper
// requires for all three libc-call categories (Section 3.3).
func (t *Thread) Errno() kernel.Errno { return t.errno }

// SetErrno sets the thread's errno.
func (t *Thread) SetErrno(e kernel.Errno) { t.errno = e }

// Reg returns register r.
func (t *Thread) Reg(r int) uint64 { return t.regs[r] }

// SetReg sets register r.
func (t *Thread) SetReg(r int, v uint64) { t.regs[r] = v }

// SetExecWindow restricts the addresses this thread may execute to the
// given [lo,hi) intervals. Variant creation uses it to give the follower a
// view in which the leader's code is "otherwise unmapped" (Section 4.2): a
// jump outside the window faults exactly like a jump to unmapped memory.
func (t *Thread) SetExecWindow(ranges ...[2]mem.Addr) {
	t.execWindow = t.execWindow[:0]
	for _, r := range ranges {
		t.execWindow = append(t.execWindow, execRange{lo: r[0], hi: r[1]})
	}
}

// EnableTrace switches on basic-block tracing.
func (t *Thread) EnableTrace() { t.traceOn = true }

// Trace returns the recorded basic-block trace.
func (t *Thread) Trace() []TraceEvent {
	return append([]TraceEvent(nil), t.trace...)
}

// PLTCalls returns the number of PLT (libc) calls issued by this thread.
func (t *Thread) PLTCalls() uint64 { return t.pltCalls.Load() }

// fault unwinds the simulated thread as a hardware fault would.
func (t *Thread) fault(err error) {
	panic(&Crash{Thread: t.name, IP: t.ip, Err: err})
}

// RegionAbort is a monitor-initiated unwind of one protected region: the
// MVX layer decided the region must not run to completion (for example a
// hijacked leader under a rollback policy) and transfers control back to
// the mvx_start call site — the simulated equivalent of the monitor
// longjmp-ing out of the trampoline into the region prologue.
type RegionAbort struct {
	// Region is the protected function being unwound.
	Region string
	// Reason says why the monitor pulled the plug.
	Reason string
}

func (r *RegionAbort) Error() string {
	return fmt.Sprintf("machine: region %s aborted: %s", r.Region, r.Reason)
}

// AbortRegion unwinds the calling thread's current protected region. It
// never returns; the unwind is caught by the nearest CallGuarded frame, or
// converted into a thread error at Run if the region was not guarded.
func (t *Thread) AbortRegion(region, reason string) {
	panic(&RegionAbort{Region: region, Reason: reason})
}

// CallGuarded is Call with a region-abort recovery point: if the callee —
// or an MVX monitor interposing its libc calls — raises a RegionAbort, the
// thread's frame bookkeeping is restored to the call site and the abort is
// returned, instead of the unwind killing the whole thread. Simulated
// hardware crashes (*Crash) still propagate: only the monitor's deliberate
// region unwind is survivable.
func (t *Thread) CallGuarded(name string, args ...uint64) (ret uint64, abort *RegionAbort) {
	ip, fn, sp, depth, nfn := t.ip, t.fn, t.sp, t.depth, len(t.fnStack)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ra, ok := r.(*RegionAbort)
		if !ok {
			panic(r)
		}
		t.ip, t.fn, t.sp, t.depth = ip, fn, sp, depth
		t.fnStack = t.fnStack[:nfn]
		abort = ra
	}()
	return t.Call(name, args...), nil
}

// Run executes fn, converting a simulated crash into an error. It is the
// only place the internal unwinding panic is recovered.
func (t *Thread) Run(fn func(t *Thread)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ra, ok := r.(*RegionAbort); ok {
				// A region abort escaped every guard: surface it as the
				// thread's exit error rather than a harness panic.
				err = ra
				return
			}
			crash, ok := r.(*Crash)
			if !ok {
				panic(r) // real bug, not a simulated fault
			}
			err = crash
		}
	}()
	fn(t)
	return nil
}

// checkExecWindow faults if addr lies outside the variant's view.
func (t *Thread) checkExecWindow(addr mem.Addr) {
	if len(t.execWindow) == 0 {
		return
	}
	for _, r := range t.execWindow {
		if addr >= r.lo && addr < r.hi {
			return
		}
	}
	t.fault(&mem.FaultError{Kind: mem.FaultUnmapped, Addr: addr, Access: mpk.Execute})
}

// Global resolves a data symbol to its address in this thread's view.
func (t *Thread) Global(name string) mem.Addr {
	sym, ok := t.m.prog.img.Lookup(name)
	if !ok {
		t.fault(fmt.Errorf("machine: unresolved symbol %q", name))
	}
	return mem.Addr(int64(sym.Addr) + t.bias)
}

// FuncAddr resolves a function symbol to its entry address in this
// thread's view.
func (t *Thread) FuncAddr(name string) mem.Addr { return t.Global(name) }

// At marks the current instruction address as the given offset into the
// running function, for taint attribution.
func (t *Thread) At(off uint64) {
	sym, ok := t.m.prog.img.Lookup(t.fn)
	if ok {
		t.ip = mem.Addr(int64(sym.Addr)+t.bias) + mem.Addr(off)
	}
}

// Block records execution of a named basic block and charges a small
// bookkeeping cost.
func (t *Thread) Block(label string) {
	t.m.ChargeThread(t, t.m.costs.Instruction*2)
	if t.traceOn {
		t.trace = append(t.trace, TraceEvent{Fn: t.fn, Block: label})
	}
}

// Compute charges n units of pure computation.
func (t *Thread) Compute(n uint64) {
	t.m.ChargeThread(t, t.m.costs.Instruction*clock.Cycles(n))
}

// Call invokes a registered function through the simulated calling
// convention: the return address is pushed onto the simulated stack, the
// first six arguments are mirrored into the argument registers, and on
// return the saved address is popped and validated. If the saved return
// address was overwritten (a stack smash), control transfers to the gadget
// interpreter instead of returning — exactly how a ROP chain gains control.
func (t *Thread) Call(name string, args ...uint64) uint64 {
	d, ok := t.m.prog.funcs[name]
	if !ok {
		if _, ok := t.m.prog.img.Lookup(name); !ok {
			t.fault(fmt.Errorf("machine: call to unresolved symbol %q", name))
		}
		t.fault(fmt.Errorf("machine: symbol %q has no body", name))
	}
	addr := mem.Addr(int64(d.sym.Addr) + t.bias)
	t.checkExecWindow(addr)
	if err := t.m.as.CheckExec(addr); err != nil {
		t.fault(err)
	}
	if t.depth > 512 {
		t.fault(fmt.Errorf("machine: call depth exceeded at %q", name))
	}

	t.m.ChargeThread(t, t.m.costs.Call)

	// Push the return address (the caller's current IP).
	retAddr := uint64(t.ip)
	t.push(retAddr)
	frameSP := t.sp

	// Mirror arguments into the argument registers (x86-64 SysV).
	argRegs := []int{RDI, RSI, RDX, RCX, R8, R9}
	for i, a := range args {
		if i >= len(argRegs) {
			// Argument 7+ goes onto the stack, which is why the sMVX
			// trampoline needs the stack rebuild of Section 3.4.
			t.push(a)
			continue
		}
		t.regs[argRegs[i]] = a
	}
	t.regs[RAX] = uint64(len(args)) // variadic convention

	prevIP, prevFn := t.ip, t.fn
	t.ip, t.fn = addr, name
	t.fnStack = append(t.fnStack, name)
	t.depth++

	var startCycles clock.Cycles
	prof := t.m.hooks.Load().profiler
	if prof != nil {
		prof.OnEnter(t.tid, name)
		if t.m.counter != nil {
			startCycles = t.m.counter.Cycles()
		}
	}

	rax := d.body(t, args)

	if prof != nil {
		var inclusive clock.Cycles
		if t.m.counter != nil {
			inclusive = t.m.counter.Cycles() - startCycles
		}
		prof.OnExit(t.tid, name, inclusive)
	}

	t.depth--
	t.fnStack = t.fnStack[:len(t.fnStack)-1]
	// Function epilogue: unwind locals, pop the saved return address.
	t.sp = frameSP
	saved := t.pop()
	if saved != retAddr {
		// The saved return address was overwritten while the frame was
		// live: control-flow hijack. Transfer to the gadget interpreter.
		t.runGadgets(mem.Addr(saved))
		// runGadgets never returns normally: a chain either faults or
		// crashes on chain end.
	}
	t.ip, t.fn = prevIP, prevFn
	return rax
}

// readMem / writeMem are the thread's checked memory accessors: they go
// through the thread's TLB and route background threads' charges off the
// wall counter.
func (t *Thread) readMem(a mem.Addr, buf []byte) error {
	return t.m.as.ThreadReadAt(&t.tlb, a, buf, t.pkru, !t.background)
}

func (t *Thread) writeMem(a mem.Addr, buf []byte) error {
	return t.m.as.ThreadWriteAt(&t.tlb, a, buf, t.pkru, !t.background)
}

// push stores v at the new top of stack.
func (t *Thread) push(v uint64) {
	t.sp -= 8
	if err := t.writeMem(t.sp, le64bytes(v)); err != nil {
		t.fault(err)
	}
}

// pop loads the value at the top of stack and advances.
func (t *Thread) pop() uint64 {
	var b [8]byte
	if err := t.readMem(t.sp, b[:]); err != nil {
		t.fault(err)
	}
	t.sp += 8
	return fromLE64(b[:])
}

// Alloca reserves n bytes of stack space and returns the buffer address
// (the lowest address of the buffer, as on a downward-growing stack).
func (t *Thread) Alloca(n uint64) mem.Addr {
	n = (n + 7) &^ 7
	t.sp -= mem.Addr(n)
	if t.sp < t.stackBase {
		t.fault(fmt.Errorf("machine: stack overflow on thread %s", t.name))
	}
	return t.sp
}

func le64bytes(v uint64) []byte {
	return []byte{
		byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
		byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56),
	}
}

func fromLE64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// reportTaint notifies the sink when the bytes at [addr, addr+n) carry
// taint, and returns that taint.
func (t *Thread) reportTaint(addr mem.Addr, n int) mem.Taint {
	tag := t.m.as.TaintOf(addr, n)
	if tag != mem.TaintNone {
		if sink := t.m.hooks.Load().taintSink; sink != nil {
			sink.OnTaintedAccess(t.ip, addr)
		}
	}
	return tag
}

// Load8 loads one byte, accumulating its taint.
func (t *Thread) Load8(addr mem.Addr) byte {
	var b [1]byte
	if err := t.readMem(addr, b[:]); err != nil {
		t.fault(err)
	}
	t.acc |= t.reportTaint(addr, 1)
	return b[0]
}

// Load64 loads a 64-bit word, accumulating its taint.
func (t *Thread) Load64(addr mem.Addr) uint64 {
	var b [8]byte
	if err := t.readMem(addr, b[:]); err != nil {
		t.fault(err)
	}
	t.acc |= t.reportTaint(addr, 8)
	return fromLE64(b[:])
}

// Store8 stores one byte, writing the taint accumulator's tag to it.
func (t *Thread) Store8(addr mem.Addr, v byte) {
	if err := t.writeMem(addr, []byte{v}); err != nil {
		t.fault(err)
	}
	t.reportTaint(addr, 1)
	if err := t.m.as.SetTaint(addr, 1, t.acc); err != nil {
		t.fault(err)
	}
}

// Store64 stores a 64-bit word, writing the taint accumulator's tag to it.
func (t *Thread) Store64(addr mem.Addr, v uint64) {
	if err := t.writeMem(addr, le64bytes(v)); err != nil {
		t.fault(err)
	}
	t.reportTaint(addr, 8)
	if err := t.m.as.SetTaint(addr, 8, t.acc); err != nil {
		t.fault(err)
	}
}

// TaintAcc returns the thread's taint accumulator.
func (t *Thread) TaintAcc() mem.Taint { return t.acc }

// ClearTaintAcc resets the taint accumulator, modeling the start of a
// computation on fresh, untainted values.
func (t *Thread) ClearTaintAcc() { t.acc = mem.TaintNone }

// ReadBytes copies n bytes out of simulated memory, accumulating taint.
func (t *Thread) ReadBytes(addr mem.Addr, n int) []byte {
	buf := make([]byte, n)
	if err := t.readMem(addr, buf); err != nil {
		t.fault(err)
	}
	t.acc |= t.reportTaint(addr, n)
	return buf
}

// WriteBytes copies b into simulated memory, tagging it with the taint
// accumulator.
func (t *Thread) WriteBytes(addr mem.Addr, b []byte) {
	if err := t.writeMem(addr, b); err != nil {
		t.fault(err)
	}
	t.reportTaint(addr, len(b))
	if err := t.m.as.SetTaint(addr, len(b), t.acc); err != nil {
		t.fault(err)
	}
}

// copyStage returns a staging buffer of n bytes for one copy: the
// thread's own, grown as needed, unless n is outside [0, maxKeptCopy].
func (t *Thread) copyStage(n int) []byte {
	if n < 0 || n > maxKeptCopy {
		return make([]byte, n)
	}
	if cap(t.copyBuf) < n {
		t.copyBuf = make([]byte, n)
	}
	return t.copyBuf[:n]
}

// Memcpy copies n bytes within simulated memory, propagating per-byte
// taint tags like a tainted memcpy in libdft. The whole source is read
// before the destination is written, so overlapping ranges copy as
// memmove does.
func (t *Thread) Memcpy(dst, src mem.Addr, n int) {
	buf := t.copyStage(n)
	if err := t.readMem(src, buf); err != nil {
		t.fault(err)
	}
	if err := t.writeMem(dst, buf); err != nil {
		t.fault(err)
	}
	t.acc |= t.reportTaint(src, n)
	t.reportTaint(dst, n)
	if err := t.m.as.CopyTaint(dst, src, n); err != nil {
		t.fault(err)
	}
}

// Memset fills n bytes with v and clears their taint (constant data).
func (t *Thread) Memset(addr mem.Addr, v byte, n int) {
	buf := t.copyStage(n)
	for i := range buf {
		buf[i] = v
	}
	if err := t.writeMem(addr, buf); err != nil {
		t.fault(err)
	}
	if err := t.m.as.SetTaint(addr, n, mem.TaintNone); err != nil {
		t.fault(err)
	}
}

// CString reads a NUL-terminated string of at most max bytes.
func (t *Thread) CString(addr mem.Addr, max int) string {
	var buf [64]byte
	return string(t.AppendCString(buf[:0], addr, max))
}

// AppendCString appends to dst the NUL-terminated string at addr, reading
// at most max bytes, and returns the extended slice. It charges, faults,
// faults pages in and accumulates taint exactly as a loop of Load8 calls
// that stops after the NUL does, and the taint sink sees the same calls,
// but the address space reads the string a page at a time.
func (t *Thread) AppendCString(dst []byte, addr mem.Addr, max int) []byte {
	dst, n, tag, err := t.m.as.ThreadAppendCString(&t.tlb, dst, addr, max, t.pkru, !t.background)
	if tag != mem.TaintNone {
		t.acc |= tag
		if sink := t.m.hooks.Load().taintSink; sink != nil {
			for i := 0; i < n; i++ {
				if a := addr + mem.Addr(i); t.m.as.TaintOf(a, 1) != mem.TaintNone {
					sink.OnTaintedAccess(t.ip, a)
				}
			}
		}
	}
	if err != nil {
		t.fault(err)
	}
	return dst
}

// WriteCString writes s plus a NUL terminator.
func (t *Thread) WriteCString(addr mem.Addr, s string) {
	t.WriteBytes(addr, append([]byte(s), 0))
}

// Libc issues a libc call by name through the image's PLT, the single
// choke point the sMVX monitor interposes on.
func (t *Thread) Libc(name string, args ...uint64) uint64 {
	slot, ok := t.m.prog.img.PLTSlot(name)
	if !ok {
		t.fault(fmt.Errorf("machine: libc %q has no PLT slot in image %s", name, t.m.prog.img.Name))
	}
	t.pltCalls.Add(1)
	t.m.ChargeThread(t, t.m.costs.Call)
	if obs := t.m.hooks.Load().libcObserver; obs != nil {
		obs(t, name)
	}
	// From here on only regs is used: escape analysis follows variables,
	// so args, read only by the copy, does not escape.
	var regs []uint64
	if len(args) <= len(t.argRegs) {
		regs = t.argRegs[:copy(t.argRegs[:], args)]
	} else {
		regs = append([]uint64(nil), args...)
	}
	if fh := t.m.hooks.Load().libcFault; fh != nil {
		regs = fh(t, name, regs)
	}

	// The call goes through the PLT stub, which jumps through .got.plt.
	pltAddr := mem.Addr(int64(t.m.prog.img.PLTEntryAddr(slot)) + t.bias)
	t.checkExecWindow(pltAddr)
	gotAddr := mem.Addr(int64(t.m.prog.img.GOTSlotAddr(slot)) + t.bias)
	target, err := t.m.as.Read64(gotAddr)
	if err != nil {
		t.fault(err)
	}
	if mem.Addr(target) == image.LibcSentinelBase+mem.Addr(slot) {
		// Unpatched: straight into libc.
		return t.m.libc.Call(t, slot, name, regs)
	}
	ipo := t.m.hooks.Load().interposer
	if ipo == nil {
		t.fault(fmt.Errorf("machine: PLT slot %d (%s) patched to %#x but no interposer installed", slot, name, target))
	}
	return ipo.Intercept(t, slot, name, regs)
}
