// Package machine is the execution engine of the simulated system.
//
// Application code is written as Go functions registered under their
// simulated symbol names, but every architecturally visible effect flows
// through the engine: function calls push real return addresses onto a call
// stack held in simulated memory (so a buffer overflow can overwrite them),
// libc calls dispatch through the image's PLT/GOT slots (so a monitor can
// patch them), loads and stores move through the simulated address space
// (so taint tags and protection keys apply), and a return to a corrupted
// address drops into a byte-level gadget interpreter (so ROP chains really
// execute, or really fault).
//
// Two threads of the same Machine can run the same registered functions
// against disjoint address ranges: a Thread carries a Bias added to every
// symbol resolution, which is how the sMVX follower variant executes the
// cloned, shifted image.
package machine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/mem"
)

// Body is the Go implementation of one simulated function. Its return
// value models %rax at ret.
type Body func(t *Thread, args []uint64) uint64

// Program binds an image to the Go bodies of its functions.
type Program struct {
	img   *image.Image
	funcs map[string]defined
}

// defined is one function the program defines: its symbol and its body,
// so that a call finds both with one lookup.
type defined struct {
	sym  image.Symbol
	body Body
}

// NewProgram creates a program for an image.
func NewProgram(img *image.Image) *Program {
	return &Program{img: img, funcs: make(map[string]defined)}
}

// Image returns the program's image.
func (p *Program) Image() *image.Image { return p.img }

// Define registers the body of a function that must exist in the image's
// symbol table.
func (p *Program) Define(name string, body Body) error {
	sym, ok := p.img.Lookup(name)
	if !ok {
		return fmt.Errorf("machine: define %q: no such symbol in image %s", name, p.img.Name)
	}
	p.funcs[name] = defined{sym: sym, body: body}
	return nil
}

// MustDefine is Define for program construction, where a missing symbol is
// a programming error.
func (p *Program) MustDefine(name string, body Body) *Program {
	if err := p.Define(name, body); err != nil {
		panic(err)
	}
	return p
}

// LibcDispatcher executes a libc call on behalf of a thread. The libc
// package implements it; the monitor wraps it.
type LibcDispatcher interface {
	// Call runs the libc function name, reached through the image's PLT
	// slot slot, with the given arguments (pointers are simulated
	// addresses) and returns the result value. Errors are reported
	// through the thread's errno, as in C.
	Call(t *Thread, slot int, name string, args []uint64) uint64
}

// Interposer receives libc calls whose GOT slot has been patched away from
// the direct libc sentinel — the sMVX monitor's trampoline entry point.
type Interposer interface {
	// Intercept handles a patched PLT call. slot is the PLT index the
	// application entered through; rax is the argument-count register
	// value at call time (variadic convention).
	Intercept(t *Thread, slot int, name string, args []uint64) uint64
}

// TaintSink receives the instruction addresses that touch tainted memory —
// the libdft-equivalent output (Section 3.2).
type TaintSink interface {
	// OnTaintedAccess reports that the instruction at ip accessed tainted
	// bytes at addr.
	OnTaintedAccess(ip, addr mem.Addr)
}

// Profiler observes function enter/exit for the perf-style profiler.
type Profiler interface {
	// OnEnter is called when fn begins on thread tid.
	OnEnter(tid int, fn string)
	// OnExit is called when fn returns, with the cycles consumed between
	// enter and exit (inclusive of callees).
	OnExit(tid int, fn string, inclusive clock.Cycles)
}

// CycleSampler receives periodic virtual-cycle call-stack samples — the
// simulated equivalent of perf's timer interrupt, driven by charged
// cycles instead of wall time. Every time a thread accumulates one sample
// period of attributed work, Sample is invoked with the thread's current
// simulated call stack (outermost first). n is how many whole periods the
// charge crossed. The callee must not retain stack.
type CycleSampler interface {
	Sample(tid int, follower bool, stack []string, n uint64)
}

// DefaultSamplePeriod is the sampling interval in virtual cycles when
// SetCycleSampler is given a non-positive period (~210k samples/simulated
// second at the 2.1GHz cost model).
const DefaultSamplePeriod clock.Cycles = 10_000

// Machine executes one program inside one process.
type Machine struct {
	prog *Program
	as   *mem.AddressSpace
	proc *kernel.Process

	costs   clock.CostTable
	counter *clock.Counter

	libc LibcDispatcher

	// sampler is read on every ChargeThread; like Process.SetRecorder it
	// follows the "set before threads run" convention instead of a lock.
	sampler      CycleSampler
	samplePeriod clock.Cycles

	// hooks is read with one atomic load on every charge, call and libc
	// call; each Set* replaces the whole set under mu.
	hooks atomic.Pointer[hookSet]

	mu      sync.Mutex
	nextTID int
}

// hookSet is the machine's wall counter, interposer and observers, all
// optional. A published set is never modified.
type hookSet struct {
	wall         *clock.Counter
	interposer   Interposer
	taintSink    TaintSink
	profiler     Profiler
	libcObserver func(t *Thread, name string)
	libcFault    LibcFaultHook
}

// setHooks publishes a copy of the current hook set with set applied.
func (m *Machine) setHooks(set func(h *hookSet)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := *m.hooks.Load()
	set(&h)
	m.hooks.Store(&h)
}

// New creates a machine. counter receives all user-space cycle charges and
// should be the same counter the process charges syscalls to.
func New(prog *Program, as *mem.AddressSpace, proc *kernel.Process, libc LibcDispatcher, counter *clock.Counter, costs clock.CostTable) *Machine {
	m := &Machine{
		prog:    prog,
		as:      as,
		proc:    proc,
		costs:   costs,
		counter: counter,
		libc:    libc,
		nextTID: 1,
	}
	m.hooks.Store(&hookSet{})
	return m
}

// Program returns the machine's program.
func (m *Machine) Program() *Program { return m.prog }

// AddressSpace returns the machine's address space.
func (m *Machine) AddressSpace() *mem.AddressSpace { return m.as }

// Process returns the machine's kernel process.
func (m *Machine) Process() *kernel.Process { return m.proc }

// Costs returns the machine's cycle cost table.
func (m *Machine) Costs() clock.CostTable { return m.costs }

// Counter returns the machine's cycle counter (total CPU consumption).
func (m *Machine) Counter() *clock.Counter { return m.counter }

// SetWallCounter attaches an elapsed-time counter. Work attributed to
// background threads (an MVX follower variant running on a spare core) is
// charged to the total counter but not to the wall counter — modelling the
// paper's distinction between throughput overhead (Figures 6 and 7) and
// CPU-cycle consumption (Section 4.1).
func (m *Machine) SetWallCounter(c *clock.Counter) {
	m.setHooks(func(h *hookSet) { h.wall = c })
}

// WallCounter returns the elapsed-time counter (may be nil).
func (m *Machine) WallCounter() *clock.Counter { return m.hooks.Load().wall }

// Libc returns the machine's libc dispatcher.
func (m *Machine) Libc() LibcDispatcher { return m.libc }

// SetInterposer installs (or removes, with nil) the PLT interposer.
func (m *Machine) SetInterposer(i Interposer) {
	m.setHooks(func(h *hookSet) { h.interposer = i })
}

// SetTaintSink installs the taint-event consumer.
func (m *Machine) SetTaintSink(s TaintSink) {
	m.setHooks(func(h *hookSet) { h.taintSink = s })
}

// SetCycleSampler installs the sampling profiler with its period in
// virtual cycles (non-positive selects DefaultSamplePeriod; nil sampler
// disables). Must be called before the machine's threads run.
func (m *Machine) SetCycleSampler(s CycleSampler, period clock.Cycles) {
	if period <= 0 {
		period = DefaultSamplePeriod
	}
	m.sampler = s
	m.samplePeriod = period
}

// SetProfiler installs the function-level profiler.
func (m *Machine) SetProfiler(p Profiler) {
	m.setHooks(func(h *hookSet) { h.profiler = p })
}

// SetLibcObserver installs a callback invoked on every PLT (libc) call with
// the issuing thread and call name — the Figure 8 measurement hook: the
// observer can inspect the thread's call stack to attribute the call to a
// candidate protected region.
func (m *Machine) SetLibcObserver(fn func(t *Thread, name string)) {
	m.setHooks(func(h *hookSet) { h.libcObserver = fn })
}

// LibcFaultHook sees every PLT (libc) call before it is dispatched and
// returns the argument slice the call proceeds with — the fault-injection
// seam used by internal/faultinject to flip scalar bits, truncate records,
// stall, or crash a variant at a chosen call ordinal. A hook that does not
// fire must return args unchanged.
type LibcFaultHook func(t *Thread, name string, args []uint64) []uint64

// SetLibcFaultHook installs (or removes, with nil) the fault-injection hook.
func (m *Machine) SetLibcFaultHook(fn LibcFaultHook) {
	m.setHooks(func(h *hookSet) { h.libcFault = fn })
}

// charge adds user-space cycles with no thread context: total and wall.
func (m *Machine) charge(c clock.Cycles) {
	if m.counter != nil {
		m.counter.Charge(c)
	}
	if w := m.WallCounter(); w != nil {
		w.Charge(c)
	}
}

// ChargeThread adds cycles attributable to a specific thread: always to the
// total counter, and to the wall counter only for foreground threads. It is
// also the sampling profiler's tick source: the thread accumulates charged
// cycles and fires the sampler on each period crossing. The accumulator
// lives on the thread (charges with thread context run on that thread's
// own goroutine), so concurrent variants sample race-free.
func (m *Machine) ChargeThread(t *Thread, c clock.Cycles) {
	if m.counter != nil {
		m.counter.Charge(c)
	}
	if t != nil {
		t.userCycles += c
	}
	if t != nil && m.sampler != nil {
		t.sampleAcc += c
		if t.sampleAcc >= m.samplePeriod {
			n := uint64(t.sampleAcc / m.samplePeriod)
			t.sampleAcc %= m.samplePeriod
			m.sampler.Sample(t.tid, t.bias != 0, t.fnStack, n)
		}
	}
	if t != nil && t.background {
		return
	}
	if w := m.WallCounter(); w != nil {
		w.Charge(c)
	}
}
