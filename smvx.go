// Package smvx is the public API of the sMVX reproduction: multi-variant
// execution on selected code paths (Yeoh, Wang, Jang, Ravindran —
// Middleware 2024), rebuilt as a deterministic simulation in pure Go.
//
// The package re-exports the building blocks a user needs to run a program
// under selective MVX:
//
//   - Describe the target binary with an ImageBuilder (sections, symbols,
//     imported libc functions) and bind Go bodies to its functions with a
//     Program.
//   - Boot a simulated process around the program with NewSystem: address
//     space, kernel, libc, execution engine.
//   - Attach the sMVX monitor with Protect, then call the mvx_init /
//     mvx_start / mvx_end hooks (Listing 1 of the paper) around sensitive
//     code paths, or use RunProtected for the common single-region case.
//   - Inspect Alarms for detected divergences.
//
// See examples/quickstart for the end-to-end flow, and internal/experiments
// for the paper's full evaluation.
package smvx

import (
	"smvx/internal/apps/apputil"
	"smvx/internal/boot"
	"smvx/internal/cli"
	"smvx/internal/core"
	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/obs/anomaly"
	"smvx/internal/obs/incident"
	"smvx/internal/obs/ledger"
	"smvx/internal/perfprof"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// Re-exported core types. The implementation lives under internal/; these
// aliases are the supported public names.
type (
	// Monitor is the in-process sMVX monitor (the paper's contribution).
	Monitor = core.Monitor
	// MonitorOption configures the monitor (delta, seed, scan hints).
	MonitorOption = core.Option
	// Alarm is one detected divergence between variants.
	Alarm = core.Alarm
	// AlarmReason classifies an alarm.
	AlarmReason = core.AlarmReason
	// RegionReport summarizes one protected-region execution.
	RegionReport = core.RegionReport
	// CreationStats is the Table 2 variant-creation breakdown.
	CreationStats = core.CreationStats

	// MVX is the mvx_init/mvx_start/mvx_end hook surface.
	MVX = machine.MVX
	// NoMVX is the vanilla no-op implementation.
	NoMVX = machine.NoMVX
	// Thread is a simulated thread.
	Thread = machine.Thread
	// Program binds an image's symbols to Go bodies.
	Program = machine.Program
	// Body is a simulated function implementation.
	Body = machine.Body

	// ImageBuilder assembles a simulated binary image.
	ImageBuilder = image.Builder
	// Image is a laid-out binary image.
	Image = image.Image

	// Kernel is a simulated operating system instance.
	Kernel = kernel.Kernel
	// Process is a simulated OS process.
	Process = kernel.Process
	// Errno is a simulated POSIX errno.
	Errno = kernel.Errno

	// Addr is a simulated virtual address.
	Addr = mem.Addr
	// Cycles counts simulated CPU cycles.
	Cycles = clock.Cycles
	// CostTable is the cycle cost model.
	CostTable = clock.CostTable

	// Env is a booted simulated process.
	Env = boot.Env
	// LibC is the simulated C library.
	LibC = libc.LibC

	// BootOption configures the simulated process at boot time.
	BootOption = boot.Option
	// DivergencePolicy decides what a detected divergence does to the
	// running variants (kill both, detach, or restart the follower).
	DivergencePolicy = core.DivergencePolicy
	// LockstepMode selects strict per-call rendezvous or the pipelined
	// bounded run-ahead ring.
	LockstepMode = core.LockstepMode
	// SyncClass is a libc call's rendezvous discipline under pipelined
	// lockstep (local, pipelined, or hard barrier).
	SyncClass = libc.SyncClass
	// VariantID numbers the members of a variant set: 0 is the leader,
	// 1..N-1 the follower slots. Alarm.Variant and the ledger's
	// per-variant axis carry it.
	VariantID = core.VariantID

	// Recorder is the flight-recorder observability plane.
	Recorder = obs.Recorder
	// Ledger is the rendezvous cost ledger: phase-level cycle/allocation
	// accounting for protected-region libc calls.
	Ledger = ledger.Ledger
	// Sink receives every recorded event (the black-box WAL implements it).
	Sink = obs.Sink
	// Fleet aggregates per-request latency spans into HDR-style percentile
	// histograms and throughput counters (served at /fleet).
	Fleet = obs.Fleet
	// LatencyHist is the log-bucketed latency histogram behind Fleet.
	LatencyHist = obs.LatencyHist
	// RequestTracker stitches a server's accept/serve/close lifecycle into
	// Fleet request spans.
	RequestTracker = apputil.RequestTracker
	// Sampler is the virtual-cycle profiling sampler.
	Sampler = perfprof.Sampler
	// AnomalyDetector runs deterministic streaming detectors (EWMA
	// z-score, rate-of-change, static threshold) over the recorder's
	// metric series; firings record EvAnomaly events.
	AnomalyDetector = anomaly.Detector
	// AnomalyConfig tunes the detector rules (start from DefaultAnomalyConfig).
	AnomalyConfig = anomaly.Config
	// IncidentEngine correlates alarms, faults, detaches, watchdog trips,
	// and anomalies into incidents with causal timelines and root-cause
	// attribution (served at /incidents).
	IncidentEngine = incident.Engine
	// Incident is one correlated group of signal events.
	Incident = incident.Incident
	// IncidentSeverity ranks an incident (info through critical).
	IncidentSeverity = incident.Severity

	// RunConfig is the shared run-configuration surface of the smvx
	// binaries (observability, policy, chaos, lockstep flags), usable by
	// embedders that want the same flag set.
	RunConfig = cli.Config
	// Runtime is a resolved RunConfig: the observability plane plus the
	// monitor options of the run.
	Runtime = cli.Runtime
)

// Alarm reasons, re-exported.
const (
	AlarmCallMismatch      = core.AlarmCallMismatch
	AlarmArgMismatch       = core.AlarmArgMismatch
	AlarmFollowerFault     = core.AlarmFollowerFault
	AlarmSequenceLength    = core.AlarmSequenceLength
	AlarmRendezvousTimeout = core.AlarmRendezvousTimeout
	AlarmEmulationFault    = core.AlarmEmulationFault
	// AlarmOutvoted marks a variant whose call record lost the majority
	// vote at an N-variant rendezvous (Alarm.Variant names the loser).
	AlarmOutvoted = core.AlarmOutvoted
)

// Divergence policies, re-exported.
const (
	PolicyKillBoth        = core.PolicyKillBoth
	PolicyLeaderContinue  = core.PolicyLeaderContinue
	PolicyRestartFollower = core.PolicyRestartFollower
	PolicyRollback        = core.PolicyRollback
)

// Lockstep modes, re-exported.
const (
	LockstepStrict    = core.LockstepStrict
	LockstepPipelined = core.LockstepPipelined
)

// ErrRegionRolledBack is the advisory sentinel End/Invoke return when a
// diverged region was contained by undoing it — check with errors.Is and
// discard any external state the region was serving.
var ErrRegionRolledBack = machine.ErrRegionRolledBack

// Sync classes, re-exported.
const (
	SyncLocal     = libc.SyncLocal
	SyncPipelined = libc.SyncPipelined
	SyncBarrier   = libc.SyncBarrier
)

// Containment and pipelining defaults, re-exported.
const (
	// DefaultVariants is the variant-set size when -variants is not
	// given: the paper's leader/follower pair.
	DefaultVariants = core.DefaultVariants
	// MaxVariants bounds the variant set (the leader plus the ledger's
	// follower-slot capacity).
	MaxVariants               = core.MaxVariants
	DefaultRestartBudget      = core.DefaultRestartBudget
	DefaultRestartBackoff     = core.DefaultRestartBackoff
	DefaultRendezvousDeadline = core.DefaultRendezvousDeadline
	DefaultLagWindow          = core.DefaultLagWindow
	DefaultSnapshotInterval   = core.DefaultSnapshotInterval
	DefaultRollbackBudget     = core.DefaultRollbackBudget
)

// Monitor option constructors, re-exported.
var (
	// WithDelta overrides the follower address-window shift.
	WithDelta = core.WithDelta
	// WithSeed sets the trampoline randomization seed.
	WithSeed = core.WithSeed
	// WithScanHints narrows the variant-creation pointer scan to the
	// named globals (the paper's static-analysis narrowing).
	WithScanHints = core.WithScanHints
	// WithoutSafeStack disables the trampoline stack pivot (ablation).
	WithoutSafeStack = core.WithoutSafeStack
	// WithVariantReuse keeps the follower across protected regions.
	WithVariantReuse = core.WithVariantReuse
	// WithRecorder attaches a flight recorder to the monitor.
	WithRecorder = core.WithRecorder
	// WithPolicy selects the divergence-response policy.
	WithPolicy = core.WithPolicy
	// WithRestartBudget bounds PolicyRestartFollower's re-clones.
	WithRestartBudget = core.WithRestartBudget
	// WithRestartBackoff delays the next restart after a detach.
	WithRestartBackoff = core.WithRestartBackoff
	// WithSnapshotInterval sets the virtual-cycle cadence between
	// PolicyRollback checkpoints (0 keeps only each region's entry one).
	WithSnapshotInterval = core.WithSnapshotInterval
	// WithRollbackBudget bounds consecutive same-ordinal rollbacks before
	// PolicyRollback escalates to kill-both.
	WithRollbackBudget = core.WithRollbackBudget
	// WithRendezvousDeadline arms the rendezvous watchdog (0 disables).
	WithRendezvousDeadline = core.WithRendezvousDeadline
	// WithLockstepMode selects strict or pipelined lockstep.
	WithLockstepMode = core.WithLockstepMode
	// WithLagWindow bounds the pipelined leader's run-ahead, in libc calls.
	WithLagWindow = core.WithLagWindow
	// WithLedger attaches a rendezvous cost ledger to the monitor.
	WithLedger = core.WithLedger
	// WithVariants sets the variant-set size: the leader plus N-1
	// diversified followers, majority-voted at each rendezvous (2
	// reproduces the paper's pair byte for byte).
	WithVariants = core.WithVariants
)

// NewLedger creates an enabled, empty rendezvous cost ledger.
func NewLedger() *Ledger { return ledger.New() }

// NewFleet creates an empty request-fleet aggregate.
func NewFleet() *Fleet { return obs.NewFleet() }

// DefaultAnomalyConfig returns the detector configuration the -anomaly
// flag enables.
func DefaultAnomalyConfig() AnomalyConfig { return anomaly.Defaults() }

// NewAnomalyDetector creates a detector recording into rec; attach it
// with rec.SetSeriesSink.
func NewAnomalyDetector(rec *Recorder, cfg AnomalyConfig) *AnomalyDetector {
	return anomaly.New(rec, cfg)
}

// NewIncidentEngine creates an incident correlator with the given window
// in cycles (0 uses the default); attach it with rec.SetTap.
func NewIncidentEngine(window Cycles) *IncidentEngine { return incident.New(window) }

// Parsers for the flag spellings of the enumerated options, re-exported.
var (
	// ParsePolicy parses "kill-both", "leader-continue",
	// "restart-follower", or "rollback".
	ParsePolicy = core.ParsePolicy
	// ParseLockstepMode parses "strict" or "pipelined".
	ParseLockstepMode = core.ParseLockstepMode
	// SyncClassOf reports a libc call's sync class under pipelined lockstep.
	SyncClassOf = libc.SyncClassOf
)

// DefaultCosts returns the calibrated cycle cost model.
func DefaultCosts() CostTable { return clock.DefaultCosts() }

// NewKernel creates a simulated operating system.
func NewKernel(seed int64) *Kernel { return kernel.New(clock.DefaultCosts(), seed) }

// NewImage starts building a binary image for a program loaded at base.
func NewImage(name string, base Addr) *ImageBuilder { return image.NewBuilder(name, base) }

// NewProgram binds Go bodies to an image's symbols.
func NewProgram(img *Image) *Program { return machine.NewProgram(img) }

// System is one simulated process plus its (optional) sMVX monitor.
type System struct {
	// Env is the booted process.
	Env *Env
	// Monitor is non-nil after Protect.
	Monitor *Monitor
}

// NewSystem boots a simulated process around prog on kernel k: address
// space, heap, shared libraries, libc, execution engine — and writes the
// binary's /tmp profile so the monitor's Setup can resolve symbols.
func NewSystem(k *Kernel, prog *Program, opts ...boot.Option) (*System, error) {
	env, err := boot.NewEnv(k, prog, opts...)
	if err != nil {
		return nil, err
	}
	return &System{Env: env}, nil
}

// Protect attaches an sMVX monitor to the system and returns it. The
// monitor lazily completes setup_mvx on the first Init.
func (s *System) Protect(opts ...MonitorOption) *Monitor {
	s.Monitor = core.New(s.Env.Machine, s.Env.LibC, opts...)
	return s.Monitor
}

// NewThread creates a simulated thread in the system's process.
func (s *System) NewThread(name string) (*Thread, error) {
	return s.Env.Machine.NewThread(name, 0)
}

// RunProtected executes fn(args) inside one protected region on a fresh
// thread: mvx_init, mvx_start, the call, mvx_end — the whole of Listing 1.
// It returns the region report (including divergence state).
func (s *System) RunProtected(fn string, args ...uint64) (RegionReport, error) {
	if s.Monitor == nil {
		s.Protect()
	}
	t, err := s.NewThread("smvx-leader")
	if err != nil {
		return RegionReport{}, err
	}
	if err := s.Monitor.Init(t); err != nil {
		return RegionReport{}, err
	}
	var startErr error
	runErr := t.Run(func(t *Thread) {
		if startErr = s.Monitor.Start(t, fn, args...); startErr != nil {
			return
		}
		t.Call(fn, args...)
		_ = s.Monitor.End(t)
	})
	if startErr != nil {
		return RegionReport{}, startErr
	}
	reports := s.Monitor.Reports()
	var rep RegionReport
	if len(reports) > 0 {
		rep = reports[len(reports)-1]
	}
	return rep, runErr
}

// Alarms returns the divergences detected so far (empty when unprotected).
func (s *System) Alarms() []Alarm {
	if s.Monitor == nil {
		return nil
	}
	return s.Monitor.Alarms()
}

// Boot option constructors, re-exported.
var (
	// WithBootSeed sets the process determinism seed.
	WithBootSeed = boot.WithSeed
	// WithHeapPages sizes the process heap.
	WithHeapPages = boot.WithHeapPages
	// WithTaint enables byte-granularity taint tracking.
	WithTaint = boot.WithTaint
	// WithCosts overrides the cycle cost model.
	WithCosts = boot.WithCosts
	// WithoutProfile skips writing the /tmp binary profile.
	WithoutProfile = boot.WithoutProfile
	// WithBootRecorder attaches a flight recorder to the booted process.
	WithBootRecorder = boot.WithRecorder
	// WithSampler attaches the virtual-cycle profiling sampler.
	WithSampler = boot.WithSampler
	// WithBlackbox spills every recorded event to a black-box WAL sink.
	WithBlackbox = boot.WithBlackbox
)
