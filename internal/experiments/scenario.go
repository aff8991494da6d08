package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/faultinject"
	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/obs/anomaly"
	"smvx/internal/obs/incident"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// The synthetic-app matrix: every fault, vote, rollback and cost experiment
// is a named slice of one Scenario -> Cell path. A Scenario holds only
// coordinates (app, fault plan, policy, lockstep mode, N, regions, snapshot
// interval); runScenario boots the app in a fresh environment,
// attaches the same planes to every cell — the cost ledger with its
// allocation probe, the incident engine, and the anomaly detector, all of
// which run in host time and charge no virtual cycle — runs every region
// through Monitor.Invoke, and collects one Cell. The slices differ only in
// the coordinates they sweep and the tables they render. Every cell is
// reproducible from its seed: fault ordinals are fixed, the rendezvous
// deadline verdict uses the follower's own cycle lag (interleaving-
// independent), and no raw timestamps are kept.
const (
	// defaultRegions is how many protected regions a cell runs unless its
	// slice says otherwise; the chaos faults fire in the first, so the
	// later regions show the policy's recovery mode (leader-only vs
	// restarted lockstep).
	defaultRegions = 3
	// chaosDeadline is the per-rendezvous deadline — small enough that the
	// injected 64M-cycle stall blows it, large enough that honest regions
	// never come close.
	chaosDeadline clock.Cycles = 4_000_000
	// chaosRestartBudget and chaosRestartBackoff keep PolicyRestartFollower
	// on a short leash: two re-clones, then leader-only.
	chaosRestartBudget               = 2
	chaosRestartBackoff clock.Cycles = 1_000
	// incidentExpWindow must bridge the slowest fault's full causal chain:
	// the injected stall charges faultinject.StallCycles (64M) before the
	// follower wakes and the policy detaches it, and that detach belongs to
	// the same incident as the fault that caused it. 2x the stall covers
	// the chain with margin; each cell injects one fault, so a wide window
	// cannot merge unrelated incidents.
	incidentExpWindow = 2 * faultinject.StallCycles
)

// faultPlan is the fault-plan coordinate: a name plus its faults.
type faultPlan struct {
	Name   string
	Faults []faultinject.Fault
}

// chaosFaults is the single-shot fault axis. The chaos app's protected
// body has the libc-call ordinal map gettimeofday=1, malloc=2, free=3,
// open=4, write=5, close=6; the planned faults are tuned to it.
var chaosFaults = []faultPlan{
	{"none", nil},
	{"follower-crash@2", []faultinject.Fault{{Kind: faultinject.FollowerCrash, Call: 2}}},
	{"arg-flip@4", []faultinject.Fault{{Kind: faultinject.ArgFlip, Call: 4, Bit: 0}}},
	{"ipc-truncate@5", []faultinject.Fault{{Kind: faultinject.IPCTruncate, Call: 5}}},
	{"stall@2", []faultinject.Fault{{Kind: faultinject.FollowerStall, Call: 2}}},
	{"emu-corrupt@1", []faultinject.Fault{{Kind: faultinject.EmulBufCorrupt, Call: 1}}},
}

// lockstepModes is the lockstep-mode axis.
var lockstepModes = []core.LockstepMode{core.LockstepStrict, core.LockstepPipelined}

// Scenario is one cell's coordinates in the synthetic-app matrix.
type Scenario struct {
	// App boots the protected application: chaosEnv or pipeEnv.
	App func(seed int64) (*boot.Env, error)
	// Fault names the fault plan; Faults is the plan (nil for none).
	Fault  string
	Faults []faultinject.Fault
	Policy core.DivergencePolicy
	// Mode is the lockstep mode; a pipelined cell runs the default lag
	// window, core.DefaultLagWindow. N is the variant count, leader
	// included.
	Mode core.LockstepMode
	N    int
	// Regions is how many protected regions the leader runs; Interval is
	// PolicyRollback's snapshot cadence (0 = entry-only checkpoints).
	Regions  int
	Interval clock.Cycles
}

// baseScenario is the matrix origin: the chaos app, no fault, kill-both,
// strict lockstep, the default N and snapshot cadence. Each slice
// overrides the coordinates it sweeps.
var baseScenario = Scenario{
	App: chaosEnv, Fault: "none", N: core.DefaultVariants,
	Regions: defaultRegions, Interval: core.DefaultSnapshotInterval,
}

// withPlan returns s with fault plan f.
func (s Scenario) withPlan(f faultPlan) Scenario {
	s.Fault, s.Faults = f.Name, f.Faults
	return s
}

// Cell is one scenario's outcome: the union of what every slice renders.
type Cell struct {
	Scenario
	// Completed is how many of the Regions protected regions the leader
	// completed (a rolled-back region counts); Survived means all of them,
	// under the monitor, with the leader alive. LeaderErr is the leader's
	// crash, if the cell killed it, or the unprotected region.
	Completed int
	Survived  bool
	LeaderErr string
	// Injected counts fault firings; Alarms maps alarm reason to count;
	// Unhandled counts alarms the policy did not contain; Outvotes counts
	// AlarmOutvoted alarms.
	Injected  int
	Alarms    map[string]int
	Unhandled int
	Outvotes  int
	// AlarmKeys maps ordinal-attributed alarm keys ("reason@call", or bare
	// "reason" for the fault-class alarms whose ordinal is
	// interleaving-dependent) to counts — the identity the strict-vs-
	// pipelined parity check compares.
	AlarmKeys map[string]int
	// The policy's response.
	Detached     bool
	Restarts     int
	Degraded     bool
	Rollbacks    int
	RegionAborts uint64
	Escalated    bool
	// Outcome classifies the cell: clean, contained, killed (unhandled
	// alarms — the kill-both verdict), restarted, recovered, escalated, or
	// leader-dead.
	Outcome string
	// Cycles is the run's total virtual CPU cost.
	Cycles clock.Cycles
	// Snapshot and rollback costs.
	Snapshots      int
	CaptureCycles  uint64
	RecoveryCycles uint64
	RedoBytes      uint64
	// The incident plane: incidents opened, and the first incident's
	// severity, attributed root cause with its libc-call ordinal, and
	// fault-to-first-detection latency on the virtual clock (valid when
	// DetectOK). Anomalies counts detector firings; IncidentTable is the
	// canonical incident table, the determinism test's byte-compare
	// surface.
	Incidents     int
	Severity      string
	RootCause     string
	RootOrdinal   uint64
	DetectCycles  uint64
	DetectOK      bool
	Anomalies     uint64
	IncidentTable string
	// The cost ledger: protected libc calls (both variants) and the grand
	// totals. ReconcilePct is the relative difference between the ledger's
	// leader-side rendezvous+enqueue+barrier+wait total and the same total
	// as the rendezvous.leader.cycles histogram accumulated it (acceptance
	// bound: 2%). RendezvousMean is the histogram's mean cycles per call.
	// Phases is the per-phase breakdown, in hot-path order, zero phases
	// omitted.
	Calls          uint64
	LedgerCycles   uint64
	AllocsPerCall  float64
	ReconcilePct   float64
	RendezvousMean float64
	Phases         []LedgerPhase
}

// Detected reports whether any alarm fired.
func (c *Cell) Detected() bool { return len(c.Alarms) > 0 }

// alarmKey is the cross-mode identity of an alarm: reason plus originating
// call ordinal for the divergence-class alarms whose attribution is
// deterministic, bare reason for the fault-class alarms (follower crash,
// sequence overrun) whose ordinal depends on where the crash interleaved.
func alarmKey(a core.Alarm) string {
	switch a.Reason {
	case core.AlarmFollowerFault, core.AlarmSequenceLength:
		return a.Reason.String()
	}
	return fmt.Sprintf("%s@%d", a.Reason, a.CallIndex)
}

// runScenario runs one scenario in a fresh environment.
func runScenario(seed int64, s Scenario) (Cell, error) {
	c := Cell{Scenario: s, Alarms: map[string]int{}, AlarmKeys: map[string]int{}}
	env, err := s.App(seed)
	if err != nil {
		return c, err
	}
	rec := env.Obs
	led := ledger.New()
	lag := 0
	if s.Mode == core.LockstepPipelined {
		lag = core.DefaultLagWindow
	}
	led.SetRun(s.Mode.String(), s.Policy.String(), lag)
	led.EnableAllocProbe()
	eng := incident.New(incidentExpWindow)
	rec.SetTap(eng)
	det := anomaly.New(rec, anomaly.Defaults())
	rec.SetSeriesSink(det)
	mon := core.New(env.Machine, env.LibC,
		core.WithSeed(seed), core.WithRecorder(rec), core.WithLedger(led),
		core.WithPolicy(s.Policy),
		core.WithLockstepMode(s.Mode), core.WithVariants(s.N),
		core.WithSnapshotInterval(s.Interval),
		core.WithRendezvousDeadline(chaosDeadline),
		core.WithRestartBudget(chaosRestartBudget),
		core.WithRestartBackoff(chaosRestartBackoff))
	faultinject.New(seed, s.Faults...).Install(env.Machine, rec)

	th, err := env.MainThread()
	if err != nil {
		return c, err
	}
	if err := mon.Init(th); err != nil {
		return c, err
	}
	var loopErr error
	runErr := th.Run(func(t *machine.Thread) {
		for ; c.Completed < s.Regions; c.Completed++ {
			// A rolled-back region is recovered, not failed: the worker
			// lives on.
			_, loopErr = mon.Invoke(t, "protected_func")
			if loopErr != nil && !errors.Is(loopErr, machine.ErrRegionRolledBack) {
				return
			}
		}
		loopErr = nil
	})
	if runErr == nil {
		runErr = loopErr
	}
	if runErr != nil {
		c.LeaderErr = runErr.Error()
	}
	c.Survived = runErr == nil && c.Completed == s.Regions
	// Invoke runs a region unprotected, with no error, when mvx_start
	// fails; End files one report per protected region, leader-only ones
	// included, so a missing report is a region the monitor never guarded.
	if c.Survived && len(mon.Reports()) != c.Completed {
		c.Survived, c.LeaderErr = false, "region ran unprotected: mvx_start failed"
	}

	m := rec.Metrics()
	c.Injected = int(m.Counter("faultinject.fired"))
	for _, a := range mon.Alarms() {
		c.Alarms[a.Reason.String()]++
		c.AlarmKeys[alarmKey(a)]++
		if a.Reason == core.AlarmOutvoted {
			c.Outvotes++
		}
	}
	c.Unhandled = mon.UnhandledAlarmCount()
	c.Detached = m.Counter("policy.follower_detached") > 0
	c.Restarts = mon.RestartsUsed()
	c.Degraded = mon.Degraded()
	c.Rollbacks = mon.Rollbacks()
	c.RegionAborts = m.Counter("rollback.region_aborts")
	c.Escalated = mon.Escalated()
	c.Outcome = outcome(&c)
	c.Cycles = env.Counter.Cycles()
	c.Snapshots = mon.Snapshots()
	c.CaptureCycles = m.HistSum("snapshot.capture.cycles")
	c.RecoveryCycles = m.HistSum("rollback.recovery.cycles")
	c.RedoBytes = m.Counter("rollback.redo.bytes")

	incs := eng.Incidents()
	c.Incidents = len(incs)
	if len(incs) > 0 {
		in := &incs[0]
		c.Severity = in.Severity.String()
		c.RootCause = in.RootCause()
		c.RootOrdinal = in.Root().Arg0
		if lat, ok := in.DetectionLatency(); ok {
			c.DetectCycles, c.DetectOK = uint64(lat), true
		}
	}
	for _, n := range det.Fired() {
		c.Anomalies += n
	}
	c.IncidentTable = eng.TableText()

	var allocs uint64
	c.Calls, c.LedgerCycles, allocs = led.Totals()
	if c.Calls > 0 {
		c.AllocsPerCall = float64(allocs) / float64(c.Calls)
	}
	h := m.Histogram(obs.MetricRendezvousLeaderCycles)
	c.RendezvousMean = h.Mean()
	if h.Sum > 0 {
		diff := float64(led.LeaderSyncCycles()) - float64(h.Sum)
		if diff < 0 {
			diff = -diff
		}
		c.ReconcilePct = diff / float64(h.Sum) * 100
	}
	c.Phases = phaseBreakdown(led)
	return c, nil
}

// outcome classifies a cell. Killed and restarted never meet: a
// restart-follower cell leaves no unhandled alarms.
func outcome(c *Cell) string {
	switch {
	case !c.Survived:
		return "leader-dead"
	case c.Escalated:
		return "escalated"
	case c.Rollbacks > 0:
		return "recovered"
	case c.Restarts > 0:
		return "restarted"
	case c.Unhandled > 0:
		// The paper's kill-both monitor would terminate both variants here.
		return "killed"
	case c.Detached:
		return "contained"
	}
	return "clean"
}

// runSlice runs a slice of the matrix, one fresh environment per cell.
func runSlice(seed int64, scs []Scenario) ([]Cell, error) {
	cells := make([]Cell, 0, len(scs))
	for _, s := range scs {
		c, err := runScenario(seed, s)
		if err != nil {
			return nil, fmt.Errorf("cell (%s, %s, %s, N=%d): %w", s.Fault, s.Policy, s.Mode, s.N, err)
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// mustSurvive fails a slice whose every cell must keep its leader alive.
func mustSurvive(cells []Cell) error {
	for i := range cells {
		if c := &cells[i]; !c.Survived {
			return fmt.Errorf("cell (%s, %s, %s): leader died: %s", c.Fault, c.Policy, c.Mode, c.LeaderErr)
		}
	}
	return nil
}

// findCell returns the first cell match accepts, or nil.
func findCell(cells []Cell, match func(*Cell) bool) *Cell {
	for i := range cells {
		if match(&cells[i]) {
			return &cells[i]
		}
	}
	return nil
}

// alarmList renders the cell's alarm reasons with counts, sorted.
func (c *Cell) alarmList() string {
	reasons := make([]string, 0, len(c.Alarms))
	for name := range c.Alarms {
		reasons = append(reasons, name)
	}
	if len(reasons) == 0 {
		return "none"
	}
	sort.Strings(reasons)
	for i, name := range reasons {
		reasons[i] = fmt.Sprintf("%s x%d", name, c.Alarms[name])
	}
	return strings.Join(reasons, ", ")
}

// bootApp boots a synthetic application — a fresh kernel, machine, and
// flight recorder — whose protected_func is body and whose g_buf global
// holds bss bytes.
func bootApp(seed int64, name string, bss uint64, body func(th *machine.Thread, args []uint64) uint64) (*boot.Env, error) {
	img := image.NewBuilder(name, 0x400000).
		AddFunc("main", 128).
		AddFunc("protected_func", 512).
		AddBSS("g_buf", bss).
		NeedLibc(libc.Names()...).
		Build()
	env, err := boot.NewEnv(kernel.New(clock.DefaultCosts(), seed), machine.NewProgram(img),
		boot.WithSeed(seed), boot.WithRecorder(obs.NewRecorder(obs.Config{})))
	if err != nil {
		return nil, err
	}
	env.Prog.MustDefine("protected_func", body)
	return env, nil
}

// chaosEnv boots the chaos application, whose protected function spans all
// three Table 1 emulation categories.
func chaosEnv(seed int64) (*boot.Env, error) {
	return bootApp(seed, "chaosapp", 4096, func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		// CatRetBuf: gettimeofday's result is emulated into the follower.
		th.Libc("gettimeofday", uint64(g), 0)
		sec := th.Load64(g)
		// CatLocal: each variant runs its own allocator.
		p := th.Libc("malloc", 64)
		th.Store64(mem.Addr(p), 0x1234)
		th.Libc("free", p)
		// CatRetOnly: leader-only kernel calls.
		path := g + 256
		th.WriteCString(path, "/chaos.txt")
		fd := th.Libc("open", uint64(path), uint64(kernel.OCreat|kernel.OWronly))
		msg := g + 512
		th.WriteCString(msg, "once")
		th.Libc("write", fd, uint64(msg), 4)
		th.Libc("close", fd)
		return sec
	})
}

// pipeLoopIters is how many {read, gettimeofday, malloc/free} rounds the
// pipe app's protected body runs between its open/close barriers.
const pipeLoopIters = 32

// pipeEnv boots the pipe application: a protected function whose body is
// an open barrier, pipeLoopIters rounds of results-emulation plus local
// calls, and a close barrier. Strict lockstep pays a full rendezvous on
// every call; pipelined pays an enqueue on the results-emulation calls and
// a rendezvous only at the barriers.
func pipeEnv(seed int64) (*boot.Env, error) {
	env, err := bootApp(seed, "pipeapp", 8192, func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		path := g + 4096
		th.WriteCString(path, "/pipe.txt")
		// SyncBarrier: externally-visible open drains the ring.
		fd := th.Libc("open", uint64(path), 0)
		var sum uint64
		for i := 0; i < pipeLoopIters; i++ {
			// SyncPipelined: the read result is emulated into the follower
			// at drain time; the leader does not wait.
			th.Libc("read", fd, uint64(g), 64)
			sum += th.Load64(g)
			th.Libc("gettimeofday", uint64(g+1024), 0)
			// SyncLocal: each variant runs its own allocator.
			p := th.Libc("malloc", 32)
			th.Store64(mem.Addr(p), sum)
			th.Libc("free", p)
		}
		th.Libc("close", fd)
		return sum
	})
	if err != nil {
		return nil, err
	}
	env.Kernel.FS().WriteFile("/pipe.txt", Page4K)
	return env, nil
}
