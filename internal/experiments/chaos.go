package experiments

import (
	"fmt"
	"sort"
	"strings"

	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/faultinject"
	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// The chaos suite exercises the divergence-response policies against the
// fault-injection harness: every (fault, policy) pair runs the same small
// protected-region application and the matrix records whether the leader
// survived, what alarms fired, and whether the policy detached or restarted
// the follower. The whole matrix is reproducible from its seed: fault
// ordinals are fixed, the rendezvous deadline verdict uses the follower's
// own cycle lag (interleaving-independent), and no raw timestamps are kept.
const (
	// chaosRegions is how many protected regions each cell runs; faults fire
	// in the first, so the later regions show the policy's recovery mode
	// (leader-only vs restarted lockstep).
	chaosRegions = 3
	// chaosDeadline is the per-rendezvous deadline — small enough that the
	// injected 64M-cycle stall blows it, large enough that honest regions
	// never come close.
	chaosDeadline clock.Cycles = 4_000_000
	// chaosRestartBudget and chaosRestartBackoff keep PolicyRestartFollower
	// on a short leash: two re-clones, then leader-only.
	chaosRestartBudget               = 2
	chaosRestartBackoff clock.Cycles = 1_000
)

// chaosProtectedCalls is the libc-call ordinal map of the protected body:
// gettimeofday=1, malloc=2, free=3, open=4, write=5, close=6. The planned
// faults below are tuned to these ordinals.
var chaosFaults = []struct {
	Name   string
	Faults []faultinject.Fault
}{
	{"none", nil},
	{"follower-crash@2", []faultinject.Fault{{Kind: faultinject.FollowerCrash, Call: 2}}},
	{"arg-flip@4", []faultinject.Fault{{Kind: faultinject.ArgFlip, Call: 4, Bit: 0}}},
	{"ipc-truncate@5", []faultinject.Fault{{Kind: faultinject.IPCTruncate, Call: 5}}},
	{"stall@2", []faultinject.Fault{{Kind: faultinject.FollowerStall, Call: 2}}},
	{"emu-corrupt@1", []faultinject.Fault{{Kind: faultinject.EmulBufCorrupt, Call: 1}}},
}

// chaosPolicies is the policy axis of the matrix.
var chaosPolicies = []core.DivergencePolicy{
	core.PolicyKillBoth,
	core.PolicyLeaderContinue,
	core.PolicyRestartFollower,
}

// ChaosCell is one (fault, policy) outcome.
type ChaosCell struct {
	Fault  string
	Policy string
	// Regions is how many of the chaosRegions protected regions the leader
	// completed; Survived means all of them, with the leader alive.
	Regions  int
	Survived bool
	// Injected counts faults that actually fired; Alarms maps alarm reason
	// to count; Unhandled counts alarms the policy did not contain.
	Injected  int
	Alarms    map[string]int
	Unhandled int
	// AlarmKeys maps ordinal-attributed alarm keys ("reason@call", or bare
	// "reason" for the fault-class alarms whose ordinal is
	// interleaving-dependent) to counts — the identity the strict-vs-
	// pipelined parity check compares.
	AlarmKeys map[string]int
	// Detached/Restarts/Degraded describe the policy's response.
	Detached bool
	Restarts int
	Degraded bool
	// LeaderErr is the leader's crash, if the cell killed it (it must not).
	LeaderErr string
	// Outcome classifies the cell: clean, contained, restarted, killed
	// (unhandled alarms — the kill-both verdict), or leader-dead.
	Outcome string
}

// ChaosResult is the full survival matrix.
type ChaosResult struct {
	Seed  int64
	Mode  core.LockstepMode
	Cells []ChaosCell
}

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

// chaosEnv boots the chaos application: a fresh kernel, machine, and flight
// recorder per cell, with a protected function spanning all three Table 1
// emulation categories.
func chaosEnv(seed int64) (*boot.Env, *obs.Recorder, error) {
	img := image.NewBuilder("chaosapp", 0x400000).
		AddFunc("main", 128).
		AddFunc("protected_func", 512).
		AddBSS("g_buf", 4096).
		NeedLibc(libc.Names()...).
		Build()
	prog := machine.NewProgram(img)
	rec := obs.NewRecorder(obs.Config{})
	env, err := boot.NewEnv(kernel.New(clock.DefaultCosts(), seed), prog,
		boot.WithSeed(seed), boot.WithRecorder(rec))
	if err != nil {
		return nil, nil, err
	}
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
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
	return env, rec, nil
}

// runChaosCell runs one (fault, policy) cell in a fresh environment.
func runChaosCell(seed int64, fault string, faults []faultinject.Fault, pol core.DivergencePolicy, mode core.LockstepMode) (ChaosCell, error) {
	cell := ChaosCell{Fault: fault, Policy: pol.String(), Alarms: map[string]int{}, AlarmKeys: map[string]int{}}
	env, rec, err := chaosEnv(seed)
	if err != nil {
		return cell, err
	}
	mon := core.New(env.Machine, env.LibC,
		core.WithSeed(seed), core.WithRecorder(rec),
		core.WithPolicy(pol),
		core.WithLockstepMode(mode),
		core.WithRendezvousDeadline(chaosDeadline),
		core.WithRestartBudget(chaosRestartBudget),
		core.WithRestartBackoff(chaosRestartBackoff))
	var plan *faultinject.Plan
	if len(faults) > 0 {
		plan = faultinject.New(seed, faults...)
		plan.Install(env.Machine, rec)
	}

	th, err := env.MainThread()
	if err != nil {
		return cell, err
	}
	if err := mon.Init(th); err != nil {
		return cell, err
	}
	var loopErr error
	runErr := th.Run(func(t *machine.Thread) {
		for i := 0; i < chaosRegions; i++ {
			if loopErr = mon.Start(t, "protected_func"); loopErr != nil {
				return
			}
			t.Call("protected_func")
			if loopErr = mon.End(t); loopErr != nil {
				return
			}
			cell.Regions++
		}
	})
	if runErr == nil {
		runErr = loopErr
	}
	if runErr != nil {
		cell.LeaderErr = runErr.Error()
	}
	cell.Survived = runErr == nil && cell.Regions == chaosRegions
	if plan != nil {
		cell.Injected = plan.FiredCount()
	}
	for _, a := range mon.Alarms() {
		cell.Alarms[a.Reason.String()]++
		cell.AlarmKeys[alarmKey(a)]++
	}
	cell.Unhandled = mon.UnhandledAlarmCount()
	cell.Detached = rec.Metrics().Counter("policy.follower_detached") > 0
	cell.Restarts = mon.RestartsUsed()
	cell.Degraded = mon.Degraded()

	switch {
	case !cell.Survived:
		cell.Outcome = "leader-dead"
	case cell.Unhandled > 0:
		// The paper's kill-both monitor would terminate both variants here.
		cell.Outcome = "killed"
	case cell.Restarts > 0:
		cell.Outcome = "restarted"
	case cell.Detached:
		cell.Outcome = "contained"
	default:
		cell.Outcome = "clean"
	}
	return cell, nil
}

// Chaos runs the full fault x policy survival matrix under strict lockstep.
// Every cell is an independent deterministic simulation; the same seed
// reproduces the same matrix byte-for-byte.
func Chaos(seed int64) (*ChaosResult, error) {
	return ChaosMode(seed, core.LockstepStrict)
}

// ChaosMode is Chaos with the lockstep mode as a third matrix axis: the same
// fault plans replayed under pipelined lockstep must surface the same alarm
// keys — detection moved to drain time, not dropped.
func ChaosMode(seed int64, mode core.LockstepMode) (*ChaosResult, error) {
	res := &ChaosResult{Seed: seed, Mode: mode}
	for _, f := range chaosFaults {
		for _, pol := range chaosPolicies {
			cell, err := runChaosCell(seed, f.Name, f.Faults, pol, mode)
			if err != nil {
				return nil, fmt.Errorf("chaos cell (%s, %s, %s): %w", f.Name, pol, mode, err)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// cell looks up a cell by coordinates.
func (r *ChaosResult) cell(fault, policy string) *ChaosCell {
	for i := range r.Cells {
		if r.Cells[i].Fault == fault && r.Cells[i].Policy == policy {
			return &r.Cells[i]
		}
	}
	return nil
}

// String renders the survival matrix plus a per-cell detail block.
func (r *ChaosResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sMVX chaos survival matrix (fault x policy), seed %d, %s lockstep\n", r.Seed, r.Mode)
	fmt.Fprintf(&b, "%d regions per cell, rendezvous deadline %d cycles, restart budget %d\n\n",
		chaosRegions, chaosDeadline, chaosRestartBudget)

	fmt.Fprintf(&b, "%-18s", "fault")
	for _, pol := range chaosPolicies {
		fmt.Fprintf(&b, " %-18s", pol)
	}
	b.WriteString("\n")
	for _, f := range chaosFaults {
		fmt.Fprintf(&b, "%-18s", f.Name)
		for _, pol := range chaosPolicies {
			c := r.cell(f.Name, pol.String())
			out := "?"
			if c != nil {
				out = fmt.Sprintf("%s %d/%d", c.Outcome, c.Regions, chaosRegions)
			}
			fmt.Fprintf(&b, " %-18s", out)
		}
		b.WriteString("\n")
	}

	b.WriteString("\ncell detail (alarms, policy response):\n")
	for i := range r.Cells {
		c := &r.Cells[i]
		reasons := make([]string, 0, len(c.Alarms))
		for name := range c.Alarms {
			reasons = append(reasons, name)
		}
		sort.Strings(reasons)
		parts := make([]string, 0, len(reasons))
		for _, name := range reasons {
			parts = append(parts, fmt.Sprintf("%s x%d", name, c.Alarms[name]))
		}
		alarms := "none"
		if len(parts) > 0 {
			alarms = strings.Join(parts, ", ")
		}
		fmt.Fprintf(&b, "  %-18s %-18s injected=%d alarms=[%s] unhandled=%d detached=%v restarts=%d degraded=%v\n",
			c.Fault, c.Policy, c.Injected, alarms, c.Unhandled, c.Detached, c.Restarts, c.Degraded)
		if c.LeaderErr != "" {
			fmt.Fprintf(&b, "    leader error: %s\n", c.LeaderErr)
		}
	}
	return b.String()
}

// RecordMetrics folds the matrix outcomes into the benchmark registry.
func (r *ChaosResult) RecordMetrics(bench *obs.Metrics) {
	for i := range r.Cells {
		c := &r.Cells[i]
		bench.Inc("chaos.cells")
		if c.Survived {
			bench.Inc("chaos.leader_survived")
		}
		bench.Inc("chaos.outcome." + obs.SanitizeName(c.Outcome))
		bench.Add("chaos.faults_injected", uint64(c.Injected))
		bench.Add("chaos.alarms_unhandled", uint64(c.Unhandled))
	}
}
