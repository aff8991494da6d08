// Package core implements the sMVX monitor — the paper's primary
// contribution: multi-variant execution on selected code paths, driven by
// an in-process monitor isolated with Intel MPK.
//
// The monitor is "loaded" into the target process the way the paper's
// LD_PRELOAD constructor is: Setup (the setup_mvx() equivalent) reads the
// binary's profile file from the /tmp filesystem, maps the trampoline
// (execute-only, at a randomized address) and the monitor's MPK-protected
// data and safe-stack regions, and patches every .got.plt slot so all libc
// calls detour through the trampoline (Section 3.4, Figure 4).
//
// mvx_start() clones the protected image into a non-overlapping address
// window (shift-and-clone, Figure 5), relocates stale pointers by combining
// static hints with an 8-byte-aligned memory scan, and launches the
// follower variant on a cloned thread. Until mvx_end(), leader and follower
// run in lockstep at libc-call granularity over a shared-memory IPC
// channel, with the three emulation categories of Table 1. Any divergence —
// different call names, different scalar arguments, a follower fault —
// raises an alarm (Section 3.3, Section 4.2).
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"

	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
	"smvx/internal/sim/mpk"
)

// Sentinel errors callers match with errors.Is.
var (
	// ErrNoProfile is returned by Setup when the binary's profile file is
	// missing from /tmp (the paper requires running the profile script
	// before launching the application under sMVX).
	ErrNoProfile = errors.New("smvx: profile file not found; run the profile extraction first")
	// ErrNotSetup is returned by Start before Setup/Init have run.
	ErrNotSetup = errors.New("smvx: monitor not set up")
	// ErrRegionActive is returned by Start when a protected region is
	// already executing.
	ErrRegionActive = errors.New("smvx: protected region already active")
	// ErrNoRegion is returned by End without a matching Start.
	ErrNoRegion = errors.New("smvx: no active protected region")
	// ErrDivergence is the abort delivered to a variant when lockstep
	// comparison fails.
	ErrDivergence = errors.New("smvx: variant execution diverged")
	// ErrDetached is the abort delivered to a follower the divergence
	// policy has severed from lockstep: not a new divergence, just the
	// containment path winding the quarantined variant down.
	ErrDetached = errors.New("smvx: follower detached by divergence policy")
	// ErrRendezvousTimeout reports a follower that failed to reach a
	// rendezvous (or the region exit) before the virtual-cycle deadline.
	ErrRendezvousTimeout = errors.New("smvx: rendezvous deadline exceeded")
)

// FollowerDelta is the default shift between the leader's and the first
// follower's address windows — large enough that no leader region can
// collide with its clone. Follower slot k sits at k*FollowerDelta.
const FollowerDelta int64 = 0x2000_0000_0000

// VariantID is the variant's index in its set (0 = leader, k = follower
// slot k), shared with the observability plane.
type VariantID = obs.Variant

// Variant-set sizing.
const (
	// DefaultVariants is the total variant count (leader included) when no
	// WithVariants option is given — the paper's leader/follower pair.
	DefaultVariants = 2
	// MaxVariants bounds the variant set: the leader plus obs.MaxFollowers
	// follower slots (the MPK key space caps the follower windows).
	MaxVariants = obs.MaxVariants
)

// followerStackPages is the follower variant's stack size.
const followerStackPages = 16

// safeStackPages is the per-thread trampoline safe-stack size.
const safeStackPages = 4

// AlarmReason classifies a raised alarm.
type AlarmReason int

// Alarm reasons.
const (
	// AlarmCallMismatch: the variants issued different libc calls at the
	// same lockstep index.
	AlarmCallMismatch AlarmReason = iota + 1
	// AlarmArgMismatch: same call, different non-pointer argument values.
	AlarmArgMismatch
	// AlarmFollowerFault: the follower variant crashed (e.g. jumped to a
	// gadget address that is unmapped in its view).
	AlarmFollowerFault
	// AlarmSequenceLength: one variant issued more libc calls than the
	// other inside the region.
	AlarmSequenceLength
	// AlarmRendezvousTimeout: the follower failed to arrive at a lockstep
	// rendezvous (or the region exit) before the virtual-cycle deadline —
	// a hung, stalled, or wedged variant caught by the watchdog instead of
	// deadlocking the machine.
	AlarmRendezvousTimeout
	// AlarmEmulationFault: the leader→follower result copy of a CatRetBuf
	// call failed because the follower's destination buffer is unmapped or
	// otherwise unwritable — a corrupt follower buffer, previously folded
	// into generic divergence.
	AlarmEmulationFault
	// AlarmOutvoted: at an N-variant rendezvous the named variant's ballot
	// disagreed with the majority. The Variant field names the loser; a
	// losing leader (variant 0) means the majority of followers agreed
	// with each other against the leader's call.
	AlarmOutvoted
)

// String names the alarm reason.
func (r AlarmReason) String() string {
	switch r {
	case AlarmCallMismatch:
		return "libc call sequence mismatch"
	case AlarmArgMismatch:
		return "libc argument mismatch"
	case AlarmFollowerFault:
		return "follower variant fault"
	case AlarmSequenceLength:
		return "libc call count mismatch"
	case AlarmRendezvousTimeout:
		return "rendezvous deadline exceeded"
	case AlarmEmulationFault:
		return "follower emulation-buffer fault"
	case AlarmOutvoted:
		return "variant outvoted"
	default:
		return "unknown"
	}
}

// Alarm is one detected divergence — the MVX engine "throwing a fault and
// alarming the monitor system" (Section 4.2).
type Alarm struct {
	// Reason classifies the divergence.
	Reason AlarmReason
	// CallIndex is the lockstep call index at which it was detected.
	CallIndex uint64
	// TS is the virtual-clock time at which the alarm fired.
	TS clock.Cycles
	// Function is the protected root function of the active region, if any.
	Function string
	// LeaderCall and FollowerCall name the libc calls the variants issued
	// at the diverging rendezvous (empty when not applicable, e.g. a
	// follower fault outside a rendezvous).
	LeaderCall, FollowerCall string
	// Detail is a human-readable description.
	Detail string
	// Variant is the dense index of the variant the alarm is about: 0 for
	// the leader, k for the k-th follower slot. Pair-era alarms always
	// name follower slot 1.
	Variant VariantID
	// Handled reports whether a containment policy (leader-continue or
	// restart-follower) absorbed the divergence: the leader kept running
	// single-variant instead of the paper's kill-both response. Unhandled
	// alarms make cmd/smvx exit nonzero.
	Handled bool
}

// CreationStats is the Table 2 breakdown of one mvx_start() invocation.
type CreationStats struct {
	// DupCycles is process duplication (copy+move of resident pages).
	DupCycles clock.Cycles
	// DataScanCycles is the .data/.bss pointer scan.
	DataScanCycles clock.Cycles
	// HeapScanCycles is the heap pointer scan.
	HeapScanCycles clock.Cycles
	// CloneCycles is the clone() thread-creation cost.
	CloneCycles clock.Cycles
	// PointersRelocated counts patched pointer slots.
	PointersRelocated int
}

// Total returns the full mvx_start cost.
func (s CreationStats) Total() clock.Cycles {
	return s.DupCycles + s.DataScanCycles + s.HeapScanCycles + s.CloneCycles
}

// RegionReport summarizes one protected-region execution, returned by End.
type RegionReport struct {
	// Function is the protected root function.
	Function string
	// LibcCalls is the number of libc calls the leader issued inside the
	// region (the Figure 8 metric).
	LibcCalls uint64
	// EmulatedBytes is the volume copied leader→follower over the IPC.
	EmulatedBytes uint64
	// Diverged reports whether any alarm fired in this region.
	Diverged bool
	// FollowerErr is the follower's crash, if it crashed.
	FollowerErr error
	// Creation is the variant-creation breakdown.
	Creation CreationStats
	// Degraded reports that the region ran (entirely or partly) without a
	// live follower: either the policy detached it mid-region, or the
	// region started leader-only after an earlier detach.
	Degraded bool
	// FollowerRestarted reports that PolicyRestartFollower re-cloned a
	// fresh follower at this region's entry.
	FollowerRestarted bool
	// RolledBack reports that PolicyRollback restored the address space
	// to the region's last checkpoint at its exit; the next region re-arms
	// full lockstep.
	RolledBack bool
}

// Options configures the monitor.
type Options struct {
	// Delta is the follower window shift (default FollowerDelta); follower
	// slot k is shifted by k*Delta.
	Delta int64
	// Variants is the total variant count, leader included (default
	// DefaultVariants; clamped to [2, MaxVariants]). N-1 follower slots
	// are cloned at each region entry and every rendezvous is a majority
	// vote over the attached slots — with one follower ballot, the
	// paper's pairwise compare.
	Variants int
	// Seed drives trampoline address randomization.
	Seed int64
	// ScanHints, when non-nil, narrows the .data/.bss pointer scan to the
	// named globals — the static (alias) analysis of Section 3.4. Nil
	// means scan everything (the strawman); the ablation benchmark
	// compares both.
	ScanHints []string
	// DisableSafeStack turns off the trampoline stack pivot (ablation;
	// the paper's design always pivots).
	DisableSafeStack bool
	// ReuseVariant keeps the follower's mappings across protected regions
	// and refreshes their contents off the critical path — the
	// "pre-scanning and pre-updating" mitigation the paper's Section 5
	// proposes for variant creation inside control loops.
	ReuseVariant bool
	// Recorder, when non-nil, receives trace events, metrics, and alarm
	// forensics from the monitor. Nil (the default) keeps every hot path
	// free of observability work.
	Recorder *obs.Recorder
	// Policy selects the divergence response (default PolicyKillBoth, the
	// paper's behaviour).
	Policy DivergencePolicy
	// RestartBudget bounds how many times PolicyRestartFollower re-clones
	// a follower before degrading to leader-continue (default
	// DefaultRestartBudget).
	RestartBudget int
	// RestartBackoff is the virtual-cycle delay after a detach before a
	// restart is attempted (default DefaultRestartBackoff).
	RestartBackoff clock.Cycles
	// RendezvousDeadline is the virtual-cycle budget for one lockstep wait
	// (and for the region-exit wait on the follower). Zero disables the
	// deadline; the default is DefaultRendezvousDeadline, generous enough
	// that only a wedged variant trips it.
	RendezvousDeadline clock.Cycles
	// Lockstep selects the rendezvous discipline: LockstepStrict (paper
	// default, stop-and-wait at every libc call) or LockstepPipelined
	// (bounded run-ahead over the rendezvous ring with drain-time
	// verification).
	Lockstep LockstepMode
	// LagWindow bounds the leader's run-ahead under LockstepPipelined:
	// the rendezvous ring holds at most this many unverified call records
	// (default DefaultLagWindow, clamped to >= 1). Ignored under
	// LockstepStrict.
	LagWindow int
	// Ledger, when non-nil, receives per-call phase-level cost accounting
	// (trampoline, marshal, rendezvous, wait, compare, emulate, drain,
	// barrier, libc) from every protected-region libc call. Nil (the
	// default) keeps the hot path ledger-free.
	Ledger *ledger.Ledger
	// SnapshotInterval is PolicyRollback's checkpoint cadence in virtual
	// cycles: a copy-on-write checkpoint of both variants is captured at
	// the first quiescent rendezvous after the interval elapses (default
	// DefaultSnapshotInterval; zero disables mid-region checkpoints, so
	// only the per-region entry checkpoint is kept). Ignored under other
	// policies.
	SnapshotInterval clock.Cycles
	// RollbackBudget bounds how many consecutive rollbacks PolicyRollback
	// absorbs at the same root-cause ordinal before escalating to
	// kill-both (default DefaultRollbackBudget). A clean region resets
	// the streak.
	RollbackBudget int
	// SyscallGranularity moves lockstep from libc calls to system calls,
	// ReMon's posture (Volckaert et al.): a call that never reaches the
	// kernel runs in each variant untouched by the monitor, and ReMon's
	// ptrace-monitored subset pays PtraceStop instead of the in-process
	// rendezvous. Protecting main makes the region the whole program.
	SyscallGranularity bool
}

// Option mutates Options.
type Option func(*Options)

// WithDelta overrides the follower window shift.
func WithDelta(d int64) Option { return func(o *Options) { o.Delta = d } }

// WithVariants sets the total variant count, leader included (clamped to
// [2, MaxVariants]). At the default of 2 the monitor behaves exactly as
// the paper's leader/follower pair; above 2 divergence becomes a majority
// vote across the variant set.
func WithVariants(n int) Option { return func(o *Options) { o.Variants = n } }

// WithSeed sets the randomization seed.
func WithSeed(s int64) Option { return func(o *Options) { o.Seed = s } }

// WithScanHints narrows the data-section pointer scan to named globals.
func WithScanHints(names ...string) Option {
	return func(o *Options) { o.ScanHints = names }
}

// WithoutSafeStack disables the trampoline stack pivot (ablation only).
func WithoutSafeStack() Option {
	return func(o *Options) { o.DisableSafeStack = true }
}

// WithVariantReuse keeps follower mappings across regions and refreshes
// them off the critical path (the paper's Section 5 pre-scan mitigation).
func WithVariantReuse() Option {
	return func(o *Options) { o.ReuseVariant = true }
}

// WithRecorder attaches a flight recorder to the monitor.
func WithRecorder(r *obs.Recorder) Option {
	return func(o *Options) { o.Recorder = r }
}

// WithPolicy selects the divergence-response policy.
func WithPolicy(p DivergencePolicy) Option {
	return func(o *Options) { o.Policy = p }
}

// WithRestartBudget bounds PolicyRestartFollower's re-clones.
func WithRestartBudget(n int) Option {
	return func(o *Options) { o.RestartBudget = n }
}

// WithRestartBackoff sets the virtual-cycle delay before a restart.
func WithRestartBackoff(c clock.Cycles) Option {
	return func(o *Options) { o.RestartBackoff = c }
}

// WithRendezvousDeadline sets the per-rendezvous virtual-cycle deadline
// (0 disables the watchdog).
func WithRendezvousDeadline(c clock.Cycles) Option {
	return func(o *Options) { o.RendezvousDeadline = c }
}

// WithLockstepMode selects strict or pipelined lockstep.
func WithLockstepMode(m LockstepMode) Option {
	return func(o *Options) { o.Lockstep = m }
}

// WithLagWindow bounds the pipelined leader's run-ahead to n unverified
// libc calls (clamped to >= 1; ignored under LockstepStrict).
func WithLagWindow(n int) Option {
	return func(o *Options) { o.LagWindow = n }
}

// WithLedger attaches a rendezvous cost ledger to the monitor.
func WithLedger(l *ledger.Ledger) Option {
	return func(o *Options) { o.Ledger = l }
}

// WithSnapshotInterval sets PolicyRollback's checkpoint cadence in virtual
// cycles (0 keeps only the per-region entry checkpoint).
func WithSnapshotInterval(c clock.Cycles) Option {
	return func(o *Options) { o.SnapshotInterval = c }
}

// WithRollbackBudget bounds PolicyRollback's consecutive same-ordinal
// rollbacks before escalating to kill-both.
func WithRollbackBudget(n int) Option {
	return func(o *Options) { o.RollbackBudget = n }
}

// WithSyscallGranularity synchronises the variants at system calls
// instead of libc calls: the ReMon side of the lockstep-granularity
// ablation.
func WithSyscallGranularity() Option {
	return func(o *Options) { o.SyscallGranularity = true }
}

// Monitor is the in-process sMVX monitor.
type Monitor struct {
	m    *machine.Machine
	img  *image.Image
	lib  *libc.LibC
	opts Options
	rec  *obs.Recorder
	led  *ledger.Ledger

	// curRegion is the active session's ledger region, read lock-free by
	// the libc ledger hook (nil outside protected regions).
	curRegion atomic.Pointer[ledger.Region]

	profile *image.Profile

	pkeyMonitor   mpk.Key
	pkeyLeader    mpk.Key
	pkeyFollowers []mpk.Key // one key per follower slot, in slot order

	trampolineBase mem.Addr
	monDataBase    mem.Addr

	// rows are the image's PLT slots resolved to libc call-table rows by
	// Setup, so an interception finds its call's row by slot.
	rows libc.PLTRows
	// cells are the monitor's per-call metric cells, resolved once by New
	// (nil cells, whose updates are no-ops, without a recorder).
	cells monCells

	mu        sync.Mutex
	setup     bool
	tids      map[int]tidState // per-thread trampoline state, by TID
	nextStack mem.Addr

	session *session

	alarms         []Alarm
	alarmHandler   func(Alarm)
	lastCreation   CreationStats
	regionCalls    map[string]uint64 // protected fn -> libc calls (Figure 8)
	followerBases  []mem.Addr        // cloned section/heap regions
	followerStacks []mem.Addr        // follower stack regions
	followerTIDs   []int             // launched follower threads, whose safe stacks destroyStacks reclaims
	slotNames      []slotNames       // per-slot thread and region names, built once
	slots          []*followerSlot   // per-slot host machinery, kept between regions (see takeSlots)
	stage          []byte            // the leader's staging buffer (see session.staging)
	scanHits       []mem.PointerHit  // relocateRange's hit list, kept between regions
	variantReady   bool              // clones exist and can be refreshed
	reports        []RegionReport

	// wd is the rendezvous deadline watchdog, one timer for every region.
	wd watchdog

	// Fault-containment state (see policy.go). slotDown marks follower
	// slots detached by the policy (their TIDs are quarantined in tids);
	// degraded means every slot is down and regions run leader-only.
	slotDown      []bool // per-slot detach flags, persistent across regions
	degraded      bool   // all follower slots down; regions run leader-only
	restartsUsed  int
	nextRestartAt clock.Cycles // earliest virtual time a restart may happen

	// Rollback state (PolicyRollback; see snapshot.go). ckpt is the active
	// region's last captured checkpoint (nil between regions). lastSnapAt is
	// leader-goroutine-only (checkpoints are captured inside a
	// rendezvous). The streak fields count consecutive rollbacks at the
	// same root-cause ordinal; escalated flips once the RollbackBudget is
	// exhausted and is read lock-free by contain().
	ckpt                *mem.Snapshot
	lastSnapAt          clock.Cycles
	snapshots           int
	rollbacks           int
	lastRollbackOrdinal uint64
	rollbackStreak      int
	escalated           atomic.Bool
}

var _ machine.MVX = (*Monitor)(nil)
var _ machine.Interposer = (*Monitor)(nil)

// New creates a monitor for the machine's program. The monitor installs
// itself as the machine's PLT interposer during Setup.
func New(m *machine.Machine, lib *libc.LibC, opts ...Option) *Monitor {
	o := Options{
		Delta:              FollowerDelta,
		Seed:               1,
		RestartBudget:      DefaultRestartBudget,
		RestartBackoff:     DefaultRestartBackoff,
		RendezvousDeadline: DefaultRendezvousDeadline,
		LagWindow:          DefaultLagWindow,
		SnapshotInterval:   DefaultSnapshotInterval,
		RollbackBudget:     DefaultRollbackBudget,
	}
	for _, fn := range opts {
		fn(&o)
	}
	if o.RestartBudget < 0 {
		o.RestartBudget = 0
	}
	if o.LagWindow < 1 {
		o.LagWindow = 1
	}
	if o.RollbackBudget < 0 {
		o.RollbackBudget = 0
	}
	if o.Variants < DefaultVariants {
		o.Variants = DefaultVariants
	}
	if o.Variants > MaxVariants {
		o.Variants = MaxVariants
	}
	mo := &Monitor{
		m:           m,
		img:         m.Program().Image(),
		lib:         lib,
		opts:        o,
		rec:         o.Recorder,
		led:         o.Ledger,
		cells:       newMonCells(o.Recorder.Metrics()),
		tids:        make(map[int]tidState),
		regionCalls: make(map[string]uint64),
	}
	mo.slotDown = make([]bool, mo.numFollowers())
	mo.slotNames = newSlotNames(mo.numFollowers())
	mo.slots = make([]*followerSlot, mo.numFollowers())
	if mo.led != nil {
		// Charge the libc dispatch itself to the ledger's libc phase. The
		// hook loads the active region lock-free; outside a region it is
		// nil and Add is a no-op.
		lib.SetLedgerHook(func(v obs.Variant, f *libc.Func, d clock.Cycles) {
			mo.curRegion.Load().Add(ledger.PhaseLibc, v, ledger.Class(f.Sync), d, ledger.Mark{}, 0)
		})
	}
	return mo
}

// LockstepConfig reports the configured lockstep mode and lag window for
// the telemetry plane's health endpoint.
func (mo *Monitor) LockstepConfig() (mode string, lagWindow int) {
	return mo.opts.Lockstep.String(), mo.opts.LagWindow
}

// numFollowers is the configured follower-slot count (Variants - 1).
func (mo *Monitor) numFollowers() int { return mo.opts.Variants - 1 }

// Variants reports the configured total variant count, leader included.
func (mo *Monitor) Variants() int { return mo.opts.Variants }

// Setup is the setup_mvx() constructor: it loads the profile file, maps and
// protects the monitor's regions, and patches the PLT. It must run before
// any protected region is entered.
func (mo *Monitor) Setup() error {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	if mo.setup {
		return nil
	}
	as := mo.m.AddressSpace()
	proc := mo.m.Process()

	// Read the binary profile the extraction script wrote to /tmp.
	data, e := proc.Kernel().FS().ReadFile(image.ProfilePath(mo.img.Name))
	if e != kernel.OK {
		return fmt.Errorf("%w: %s", ErrNoProfile, image.ProfilePath(mo.img.Name))
	}
	prof, err := image.ParseProfile(data)
	if err != nil {
		return fmt.Errorf("smvx: parse profile: %w", err)
	}
	mo.profile = prof

	// Allocate protection keys: one hides the monitor, one per variant to
	// separate the data views (leader plus one key per follower slot).
	alloc := mpk.NewAllocator()
	for _, dst := range []*mpk.Key{&mo.pkeyMonitor, &mo.pkeyLeader} {
		k, err := alloc.Alloc()
		if err != nil {
			return fmt.Errorf("smvx: pkey_alloc: %w", err)
		}
		*dst = k
	}
	mo.pkeyFollowers = make([]mpk.Key, mo.numFollowers())
	for i := range mo.pkeyFollowers {
		k, err := alloc.Alloc()
		if err != nil {
			return fmt.Errorf("smvx: pkey_alloc: %w", err)
		}
		mo.pkeyFollowers[i] = k
	}

	// Map the trampoline at a randomized address (code location
	// randomization, MonGuard-style) and mark it execute-only: the
	// application can jump through it but never read it to find the
	// monitor (XoM, Section 3.4).
	rng := rand.New(rand.NewSource(mo.opts.Seed))
	slot := mem.Addr(0x5500_0000_0000 + uint64(rng.Intn(1<<20))*mem.PageSize)
	tramp, err := as.Map(mem.Region{Name: "smvx:trampoline", Base: slot, Size: mem.PageSize, Perm: mem.PermRWX})
	if err != nil {
		return fmt.Errorf("smvx: map trampoline: %w", err)
	}
	// Fill with trampoline stub bytes, then flip to execute-only.
	stub := image.GenFuncBody("smvx", "trampoline", mem.PageSize)
	if err := as.WriteAt(tramp.Base, stub); err != nil {
		return err
	}
	if err := as.SetRegionPerm(tramp.Base, mem.PermExec); err != nil {
		return err
	}
	mo.trampolineBase = tramp.Base

	// Monitor data (IPC ring, bookkeeping) under the monitor key.
	monData, err := as.Map(mem.Region{
		Name: "smvx:data",
		Base: slot + 16*mem.PageSize,
		Size: 16 * mem.PageSize,
		Perm: mem.PermRW,
		Key:  mo.pkeyMonitor,
	})
	if err != nil {
		return fmt.Errorf("smvx: map monitor data: %w", err)
	}
	if err := as.Touch(monData.Base, monData.Size); err != nil {
		return err
	}
	mo.monDataBase = monData.Base
	mo.nextStack = slot + 64*mem.PageSize

	// Patch every .got.plt slot to the trampoline: from now on all libc
	// calls are under the monitor's interception, and each finds its row
	// by slot.
	mo.rows = libc.NewPLTRows(mo.img.PLTSlots())
	for i := range mo.rows {
		target := mo.trampolineBase + mem.Addr(i)
		if err := as.Write64(mo.img.GOTSlotAddr(i), uint64(target)); err != nil {
			return fmt.Errorf("smvx: patch got slot %d: %w", i, err)
		}
	}
	mo.m.SetInterposer(mo)
	mo.setup = true
	return nil
}

// Init implements machine.MVX: the mvx_init() call. It runs Setup if
// needed and restricts the calling thread's PKRU so application code cannot
// touch monitor memory.
func (mo *Monitor) Init(t *machine.Thread) error {
	if err := mo.Setup(); err != nil {
		return err
	}
	t.WRPKRU(mo.appPKRU(t))
	return nil
}

// appPKRU computes the PKRU application code runs under: monitor key
// disabled, plus every other variant's key disabled once variants exist.
func (mo *Monitor) appPKRU(t *machine.Thread) mpk.PKRU {
	p := mpk.AllowAll.WithAccessDisabled(mo.pkeyMonitor, true)
	slot := t.Variant()
	if slot == 0 {
		for _, k := range mo.pkeyFollowers {
			p = p.WithAccessDisabled(k, true)
		}
		return p
	}
	p = p.WithAccessDisabled(mo.pkeyLeader, true)
	for i, k := range mo.pkeyFollowers {
		if i != slot-1 {
			p = p.WithAccessDisabled(k, true)
		}
	}
	return p
}

// monPKRU is the PKRU inside the trampoline/monitor: everything enabled.
func (mo *Monitor) monPKRU() mpk.PKRU { return mpk.AllowAll }

// Phase reports the monitor's lifecycle phase for the telemetry plane's
// health endpoint: "init" before setup_mvx has run, "idle" between
// protected regions, "region" while a leader/follower pair is live.
func (mo *Monitor) Phase() string {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	switch {
	case !mo.setup:
		return "init"
	case mo.session == nil:
		return "idle"
	default:
		return "region"
	}
}

// FollowerLive reports whether any follower variant is currently running —
// a region is active and at least one attached follower thread has not
// terminated. It reads the slots under the lock that the next region's
// Start resets them under.
func (mo *Monitor) FollowerLive() bool {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	s := mo.session
	if s == nil {
		return false
	}
	for _, slot := range s.slots {
		if slot.detached() {
			continue
		}
		select {
		case <-slot.dead:
		default:
			return true
		}
	}
	return false
}

// Alarms returns the divergences detected so far.
func (mo *Monitor) Alarms() []Alarm {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return append([]Alarm(nil), mo.alarms...)
}

// LastCreation returns the Table 2 breakdown of the most recent
// mvx_start().
func (mo *Monitor) LastCreation() CreationStats {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.lastCreation
}

// RegionLibcCalls returns the libc calls observed inside protected regions,
// per protected root function (Figure 8).
func (mo *Monitor) RegionLibcCalls() map[string]uint64 {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	out := make(map[string]uint64, len(mo.regionCalls))
	for k, v := range mo.regionCalls {
		out[k] = v
	}
	return out
}

// Reports returns the per-region reports in order.
func (mo *Monitor) Reports() []RegionReport {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return append([]RegionReport(nil), mo.reports...)
}

// TrampolineBase exposes the randomized trampoline address (tests verify
// randomization and XoM).
func (mo *Monitor) TrampolineBase() mem.Addr { return mo.trampolineBase }

// MonitorKey returns the monitor's protection key.
func (mo *Monitor) MonitorKey() mpk.Key { return mo.pkeyMonitor }

// SetAlarmHandler installs a callback invoked on every raised alarm — the
// hook a deployment wires to its intrusion-response path ("it may trigger
// an alarm if the execution outcomes of the variants diverge, signaling a
// potential attack", Section 3.2). The handler runs on the detecting
// goroutine and must not block.
func (mo *Monitor) SetAlarmHandler(fn func(Alarm)) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	mo.alarmHandler = fn
}

// raiseAlarm records a divergence, forwards it (with any thread snapshots)
// to the flight recorder, and notifies the handler. The alarm's TS is
// stamped here.
func (mo *Monitor) raiseAlarm(a Alarm, snaps ...obs.ThreadSnapshot) {
	a.TS = mo.m.Counter().Cycles()
	a.Handled = mo.contain()
	mo.mu.Lock()
	mo.alarms = append(mo.alarms, a)
	handler := mo.alarmHandler
	if s := mo.session; s != nil {
		// The region's first alarm is the rollback root cause (stored as
		// ordinal+1 so an ordinal-0 alarm still marks the slot taken).
		s.rollbackCause.CompareAndSwap(0, a.CallIndex+1)
	}
	mo.mu.Unlock()
	mo.rec.Alarm(obs.AlarmInfo{
		Reason:       a.Reason.String(),
		CallIndex:    a.CallIndex,
		Function:     a.Function,
		LeaderCall:   a.LeaderCall,
		FollowerCall: a.FollowerCall,
		Detail:       a.Detail,
		Snapshots:    snaps,
	})
	if handler != nil {
		handler(a)
	}
}

// snapshotWords is how many top-of-stack words a thread snapshot captures.
const snapshotWords = 4

// snapshot captures a thread's architectural state for the flight recorder.
// Thread state is unlocked: callers must hold a happens-before edge on t —
// either t is the calling goroutine's own thread, or t is blocked on a
// rendezvous channel the caller has received from.
func (mo *Monitor) snapshot(role string, t *machine.Thread) obs.ThreadSnapshot {
	regs := make([]uint64, 16)
	for i := range regs {
		regs[i] = t.Reg(i)
	}
	as := mo.m.AddressSpace()
	stack := make([]uint64, 0, snapshotWords)
	for i := 0; i < snapshotWords; i++ {
		v, err := as.Read64(t.SP() + mem.Addr(i*8))
		if err != nil {
			break
		}
		stack = append(stack, v)
	}
	return obs.ThreadSnapshot{
		Role:      role,
		TID:       t.TID(),
		IP:        uint64(t.IP()),
		SP:        uint64(t.SP()),
		Regs:      regs,
		Stack:     stack,
		CallStack: t.FnStack(),
	}
}

// tidState is one thread's trampoline state: its safe-stack top, 0 until
// one is reserved, whether the stack is mapped, and whether the thread is
// a detached follower barred from the trampoline.
type tidState struct {
	safeStack   mem.Addr
	mapped      bool
	quarantined bool
}

// reserveStackLocked reserves the next safe-stack address and returns the
// stack's top. Addresses are never reused, so each stack keeps its place
// however many followers come and go. Caller holds mo.mu.
func (mo *Monitor) reserveStackLocked() mem.Addr {
	base := mo.nextStack
	mo.nextStack += mem.Addr((safeStackPages + 1) * mem.PageSize) // +1 guard
	return base + safeStackPages*mem.PageSize
}

// trampolineState reads what one interception needs of the monitor in one
// lock section and one per-TID lookup: the active session, whether t is
// quarantined, and, when pivot, t's safe-stack top. Safe stacks are
// per-thread TLS in the monitor's address range, protected by the monitor
// key (Section 3.4), mapped on the thread's first interception: at an
// address Start reserved in slot order for a follower, at the next one for
// any other thread. A follower thread's goes with it in destroyStacks. A
// quarantined thread is about to be wound down: it gets no stack (top 0),
// so an orphan released past its region maps nothing no teardown would
// unmap.
func (mo *Monitor) trampolineState(t *machine.Thread, pivot bool) (*session, bool, mem.Addr) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	st := mo.tids[t.TID()]
	if st.quarantined || !pivot {
		return mo.session, st.quarantined, 0
	}
	if !st.mapped {
		if st.safeStack == 0 {
			st.safeStack = mo.reserveStackLocked()
		}
		as := mo.m.AddressSpace()
		var name [40]byte
		if _, err := as.Map(mem.Region{
			Name: string(strconv.AppendInt(append(name[:0], "smvx:safestack:"...), int64(t.TID()), 10)),
			Base: st.safeStack - safeStackPages*mem.PageSize,
			Size: safeStackPages * mem.PageSize,
			Perm: mem.PermRW,
			Key:  mo.pkeyMonitor,
		}); err != nil {
			// Safe-stack exhaustion is a monitor bug; crash the thread.
			panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: err})
		}
		st.mapped = true
		mo.tids[t.TID()] = st
	}
	return mo.session, false, st.safeStack
}

// monCells are the monitor's per-call metric cells.
type monCells struct {
	wait, leader, lag *obs.HistCell // lockstep.wait.cycles, rendezvous.leader.cycles, rendezvous.lag
	barrier, emulated *obs.CounterCell
	depth             *obs.GaugeCell // pipeline.depth
}

func newMonCells(m *obs.Metrics) monCells {
	return monCells{
		wait:     m.HistCell("lockstep.wait.cycles"),
		leader:   m.HistCell(obs.MetricRendezvousLeaderCycles),
		lag:      m.HistCell(obs.MetricRendezvousLag),
		barrier:  m.CounterCell(obs.MetricLockstepBarrier),
		emulated: m.CounterCell("lockstep.emulated.bytes"),
		depth:    m.GaugeCell(obs.MetricPipelineDepth),
	}
}
