// Package boot assembles a runnable simulated process from its parts: it
// maps a program image into a fresh address space, maps and registers the
// heap, creates the kernel process and libc, and wires the execution
// engine. It also writes the binary's profile file to the simulated /tmp —
// the step the paper's extraction script performs before an application can
// run under sMVX (Section 3.2).
package boot

import (
	"fmt"

	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/perfprof"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// DefaultHeapBase is where the process heap is mapped (above the image).
const DefaultHeapBase mem.Addr = 0x1000_0000

// DefaultHeapPages is the default heap size in pages (4MiB).
const DefaultHeapPages = 1024

// Options configures process assembly.
type Options struct {
	// Seed drives libc-level determinism (random()).
	Seed int64
	// HeapPages is the heap size in pages.
	HeapPages int
	// Costs is the machine cost table.
	Costs clock.CostTable
	// EnableTaint switches on byte-granularity taint tracking.
	EnableTaint bool
	// WriteProfile controls whether the /tmp profile file is written
	// (required before running under sMVX).
	WriteProfile bool
	// Recorder, when non-nil, is wired into the libc and kernel layers (and
	// exposed as Env.Obs for the monitor) so the whole process traces into
	// one flight recorder.
	Recorder *obs.Recorder
	// Blackbox, when non-nil, is attached to the Recorder as its durable
	// event sink (a Recorder is created if none was given): every event the
	// process records is spilled to the black-box WAL before ring eviction.
	Blackbox obs.Sink
	// Sampler, when non-nil, is installed as the machine's cycle sampler
	// (user-space stacks) and the kernel process's syscall ticker, so the
	// sampling profiler sees both sides of the process.
	Sampler *perfprof.Sampler
}

// Option mutates Options.
type Option func(*Options)

// WithSeed sets the determinism seed.
func WithSeed(s int64) Option { return func(o *Options) { o.Seed = s } }

// WithHeapPages sets the heap size.
func WithHeapPages(n int) Option { return func(o *Options) { o.HeapPages = n } }

// WithTaint enables taint tracking.
func WithTaint() Option { return func(o *Options) { o.EnableTaint = true } }

// WithoutProfile skips writing the /tmp profile file.
func WithoutProfile() Option { return func(o *Options) { o.WriteProfile = false } }

// WithCosts overrides the cycle cost table.
func WithCosts(c clock.CostTable) Option { return func(o *Options) { o.Costs = c } }

// WithRecorder attaches a flight recorder to the assembled process.
func WithRecorder(r *obs.Recorder) Option { return func(o *Options) { o.Recorder = r } }

// WithBlackbox attaches a durable event sink (the black-box trace WAL) to
// the process's flight recorder, creating a default recorder when none is
// configured.
func WithBlackbox(s obs.Sink) Option { return func(o *Options) { o.Blackbox = s } }

// WithSampler attaches a virtual-cycle sampling profiler to the assembled
// process.
func WithSampler(s *perfprof.Sampler) Option { return func(o *Options) { o.Sampler = s } }

// Env is one assembled simulated process.
type Env struct {
	// Kernel is the (possibly shared) operating system.
	Kernel *kernel.Kernel
	// Proc is this process's kernel identity.
	Proc *kernel.Process
	// AS is the process address space.
	AS *mem.AddressSpace
	// Img is the mapped program image.
	Img *image.Image
	// Prog binds the image's symbols to Go bodies.
	Prog *machine.Program
	// LibC is the process's C library.
	LibC *libc.LibC
	// Machine is the execution engine.
	Machine *machine.Machine
	// Counter accumulates this process's total CPU cycles.
	Counter *clock.Counter
	// Wall accumulates elapsed-time cycles: background (follower) thread
	// work is excluded, modelling variants on spare cores.
	Wall *clock.Counter
	// Costs is the cost table in effect.
	Costs clock.CostTable
	// HeapBase and HeapSize describe the mapped heap.
	HeapBase mem.Addr
	HeapSize uint64
	// Obs is the flight recorder wired through the stack (nil when
	// observability is off).
	Obs *obs.Recorder
}

// NewEnv assembles a process running prog on kernel k.
func NewEnv(k *kernel.Kernel, prog *machine.Program, opts ...Option) (*Env, error) {
	o := Options{Seed: 1, HeapPages: DefaultHeapPages, Costs: k.Costs(), WriteProfile: true}
	for _, fn := range opts {
		fn(&o)
	}
	if o.Blackbox != nil {
		if o.Recorder == nil {
			o.Recorder = obs.NewRecorder(obs.Config{})
		}
		o.Recorder.SetSink(o.Blackbox)
	}
	img := prog.Image()

	counter := clock.NewCounter()
	wall := clock.NewCounter()
	as := mem.NewAddressSpace(counter, o.Costs)
	as.SetWallCounter(wall)
	if o.EnableTaint {
		as.EnableTaint()
	}
	if err := img.MapInto(as, ""); err != nil {
		return nil, fmt.Errorf("boot: map image: %w", err)
	}
	heapSize := uint64(o.HeapPages) * mem.PageSize
	if _, err := as.Map(mem.Region{Name: "heap", Base: DefaultHeapBase, Size: heapSize, Perm: mem.PermRW}); err != nil {
		return nil, fmt.Errorf("boot: map heap: %w", err)
	}

	// Map the shared libraries the dynamic loader brings in (libc, ld).
	// Their pages dominate a small server's RSS — and sMVX never
	// replicates them: the follower variant has no libc of its own, the
	// monitor emulates its libc calls (Section 3.3). That asymmetry is
	// the source of the paper's ~49% memory saving (Section 4.1).
	for _, lib := range []struct {
		name string
		base mem.Addr
		kb   uint64
		perm mem.Perm
	}{
		{name: "lib:libc.so.text", base: 0x7f80_0000_0000, kb: 1004, perm: mem.PermRX},
		{name: "lib:libc.so.data", base: 0x7f80_1000_0000, kb: 96, perm: mem.PermRW},
		{name: "lib:ld.so", base: 0x7f80_2000_0000, kb: 156, perm: mem.PermRX},
	} {
		if _, err := as.Map(mem.Region{Name: lib.name, Base: lib.base, Size: lib.kb * 1024, Perm: lib.perm}); err != nil {
			return nil, fmt.Errorf("boot: map %s: %w", lib.name, err)
		}
		if err := as.Touch(lib.base, lib.kb*1024); err != nil {
			return nil, err
		}
	}

	proc := k.NewProcess(counter)
	proc.SetWallCounter(wall)
	lib := libc.New(proc, counter, o.Costs, o.Seed)
	lib.RegisterHeap(0, DefaultHeapBase, heapSize)
	lib.BindPLT(img.PLTSlots())
	if o.Recorder != nil {
		o.Recorder.SetClock(counter)
		proc.SetRecorder(o.Recorder)
		lib.SetRecorder(o.Recorder)
	}
	m := machine.New(prog, as, proc, lib, counter, o.Costs)
	m.SetWallCounter(wall)
	if o.Sampler != nil {
		m.SetCycleSampler(o.Sampler, o.Sampler.Period())
		proc.SetCycleTicker(o.Sampler)
	}

	if o.WriteProfile {
		k.FS().WriteFile(image.ProfilePath(img.Name), img.WriteProfile())
	}

	return &Env{
		Kernel:   k,
		Proc:     proc,
		AS:       as,
		Img:      img,
		Prog:     prog,
		LibC:     lib,
		Machine:  m,
		Counter:  counter,
		Wall:     wall,
		Costs:    o.Costs,
		HeapBase: DefaultHeapBase,
		HeapSize: heapSize,
		Obs:      o.Recorder,
	}, nil
}

// MainThread creates the process's initial thread.
func (e *Env) MainThread() (*machine.Thread, error) {
	return e.Machine.NewThread("main", 0)
}

// RunMain executes fn("main" thread) with crash recovery, returning the
// simulated crash as an error if one occurs.
func (e *Env) RunMain(fn func(t *machine.Thread)) error {
	t, err := e.MainThread()
	if err != nil {
		return err
	}
	return t.Run(fn)
}

// ResidentKB returns the process RSS in KiB — the pmap measurement of
// Section 4.1.
func (e *Env) ResidentKB() int {
	return e.AS.ResidentKB()
}
