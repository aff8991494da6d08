package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"smvx/internal/apps/apputil"
	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/faultinject"
	"smvx/internal/obs"
	"smvx/internal/sim/clock"
	"smvx/internal/workload"
)

// The survival benchmark is the robustness counterpart of the fleet sweep:
// instead of asking how fast sMVX serves, it asks what the service looks
// like while it is being attacked continuously. Three artifacts:
//
//  1. Continuous attack: the CVE-2013-2028 exploit is delivered to a
//     vulnerable nginx worker over and over, a benign request between
//     every two attacks. Under PolicyRollback the worker must detect every
//     recurrence (the follower faults on the leader-layout gadgets),
//     unwind the hijacked region before the ROP chain's mkdir executes,
//     restore the checkpoint, and keep answering the benign traffic — no
//     /pwned, no degraded single-variant window, nonzero request
//     throughput. The kill-both reference row shows what the paper's
//     policy gives up: detection, but a dead worker after the first
//     attack (and the hijacked leader still reaches the payload call
//     while winding down).
//
//  2. Repeating-fault matrix: the chaos application under repeat-every:N
//     fault plans x all four divergence policies x both lockstep modes —
//     the steady-state view of each policy under a persistent attacker,
//     including rollback's budget escalation when the same root-cause
//     ordinal recurs back to back and its indefinite recovery when clean
//     regions intersperse.
//
//  3. Snapshot-interval sweep: checkpoint cadence vs capture cost vs
//     recovery cost for the same repeating fault, the knob the
//     -snapshot-interval flag exposes.

const (
	// survivalAttacks is how many exploit deliveries the continuous-attack
	// cell absorbs (one benign request follows each).
	survivalAttacks = 5
	// survivalRegions is how many protected regions each matrix/sweep cell
	// runs — enough for rollback's same-ordinal streak to exhaust the
	// default budget of 3 when every region diverges.
	survivalRegions = 6
)

// SurvivalAttackCell is one continuous-attack configuration of nginx.
type SurvivalAttackCell struct {
	Mode         string  `json:"mode"`
	Attacks      int     `json:"attacks"`
	Detected     int     `json:"detected"`
	Rollbacks    int     `json:"rollbacks"`
	RegionAborts uint64  `json:"region_aborts"`
	Snapshots    int     `json:"snapshots"`
	BenignSent   int     `json:"benign_sent"`
	BenignOK     int     `json:"benign_ok"`
	Pwned        bool    `json:"pwned"`
	LeaderOnly   uint64  `json:"leader_only_regions"`
	Escalated    bool    `json:"escalated"`
	Degraded     bool    `json:"degraded"`
	WorkerAlive  bool    `json:"worker_alive"`
	WorkerErr    string  `json:"worker_err,omitempty"`
	RPS          float64 `json:"rps"`
	PctNative    float64 `json:"pct_native"`
}

// SurvivalResult is the full continuous-attack survival benchmark.
type SurvivalResult struct {
	Seed   int64
	Attack []SurvivalAttackCell
	Matrix []Cell
	Sweep  []Cell
}

// survivalFaults are the repeating fault plans of the matrix, named in the
// -chaos spec spelling. The chaos application's protected body issues 6
// libc calls and the follower-call counter is cumulative across regions; a
// region that diverges under rollback consumes follower calls only up to
// the faulted ordinal, so the period sets the recurrence shape:
//
//   - repeat-every:4 re-fires at the open call in every region — the
//     same-root-cause streak exhausts the rollback budget and escalates.
//   - repeat-every:8 fires with a clean region after each hit — the clean
//     regions reset the streak, so rollback recovers indefinitely. This is
//     the sustained-survival row.
//   - repeat-every:6 (ipc-truncate) walks onto the close call's length
//     mismatch and recurs there back to back — a second escalation path
//     through a different alarm family.
var survivalFaults = []faultPlan{
	{"arg-flip@4:repeat-every:4", []faultinject.Fault{{Kind: faultinject.ArgFlip, Call: 4, Bit: 0, Every: 4}}},
	{"arg-flip@4:repeat-every:8", []faultinject.Fault{{Kind: faultinject.ArgFlip, Call: 4, Bit: 0, Every: 8}}},
	{"ipc-truncate@5:repeat-every:6", []faultinject.Fault{{Kind: faultinject.IPCTruncate, Call: 5, Every: 6}}},
}

// survivalPolicies is the full policy axis: chaos's, then rollback.
var survivalPolicies = append(append([]core.DivergencePolicy{}, chaosPolicies...), core.PolicyRollback)

// runSurvivalNative measures the unattacked benign baseline: the same
// vulnerable binary, no monitor, the same number of benign requests the
// attacked cells interleave — the pct-of-native anchor.
func runSurvivalNative(requests int) (float64, error) {
	rec := obs.NewRecorder(obs.Config{})
	fleet := obs.NewFleet()
	fleet.SetRun("native")
	h, err := startNginx(nginx.Config{
		Port: 8080, MaxRequests: requests, Version: nginx.VersionVulnerable,
		Track: &apputil.RequestTracker{App: "nginx", Rec: rec, Fleet: fleet},
	}, false, boot.WithRecorder(rec))
	if err != nil {
		return 0, err
	}
	req := workload.GetRequest("/index.html")
	for i := 0; i < requests; i++ {
		if _, err := workload.RequestPath(h.client, 8080, req); err != nil {
			return 0, fmt.Errorf("survival native request %d: %w", i, err)
		}
	}
	if err := <-h.done; err != nil {
		return 0, fmt.Errorf("survival native worker: %w", err)
	}
	snap := fleet.Snapshot()
	if len(snap.Apps) == 0 {
		return 0, nil
	}
	return snap.Apps[0].RPS, nil
}

// runSurvivalAttackCell drives the continuous attack against one rollback
// configuration: alternate exploit delivery and benign request, then read
// the detection, recovery, and service counters out of the run.
func runSurvivalAttackCell(name string, mode core.LockstepMode, nativeRPS float64) (SurvivalAttackCell, error) {
	cell := SurvivalAttackCell{Mode: name, Attacks: survivalAttacks}
	rec := obs.NewRecorder(obs.Config{})
	fleet := obs.NewFleet()
	fleet.SetRun(name)
	h, err := startNginxOpts(nginx.Config{
		Port: 8080, MaxRequests: 2 * survivalAttacks,
		Version: nginx.VersionVulnerable,
		Protect: "ngx_http_process_request_line",
		Track:   &apputil.RequestTracker{App: "nginx", Rec: rec, Fleet: fleet},
	}, true,
		[]core.Option{core.WithPolicy(core.PolicyRollback), core.WithLockstepMode(mode)},
		boot.WithRecorder(rec))
	if err != nil {
		return cell, err
	}
	ex, err := workload.BuildCVE2013_2028(h.env.Img, "/pwned")
	if err != nil {
		return cell, err
	}
	benign := workload.GetRequest("/index.html")
	for i := 0; i < survivalAttacks; i++ {
		if err := ex.Deliver(h.client, 8080); err != nil {
			return cell, fmt.Errorf("survival attack %d: %w", i, err)
		}
		cell.BenignSent++
		resp, err := workload.RequestPath(h.client, 8080, benign)
		if err == nil && bytes.HasPrefix(resp, []byte("HTTP/1.1 200")) {
			cell.BenignOK++
		}
	}
	werr := <-h.done
	cell.WorkerAlive = werr == nil
	if werr != nil {
		cell.WorkerErr = werr.Error()
	}
	for _, a := range h.mon.Alarms() {
		if a.Reason == core.AlarmFollowerFault {
			cell.Detected++
		}
	}
	cell.Rollbacks = h.mon.Rollbacks()
	cell.Snapshots = h.mon.Snapshots()
	cell.RegionAborts = rec.Metrics().Counter("rollback.region_aborts")
	cell.Pwned = h.env.Kernel.FS().DirExists("/pwned")
	cell.LeaderOnly = rec.Metrics().Counter("region.leader_only")
	cell.Escalated = h.mon.Escalated()
	cell.Degraded = h.mon.Degraded()
	snap := fleet.Snapshot()
	if len(snap.Apps) > 0 {
		cell.RPS = snap.Apps[0].RPS
	}
	if nativeRPS > 0 {
		cell.PctNative = cell.RPS / nativeRPS * 100
	}
	return cell, nil
}

// runSurvivalKillBoth is the paper-policy reference row: one exploit
// delivery, the worker dies mid-ROP-chain. Detection without survival.
func runSurvivalKillBoth() (SurvivalAttackCell, error) {
	cell := SurvivalAttackCell{Mode: "kill-both", Attacks: 1}
	rec := obs.NewRecorder(obs.Config{})
	h, err := startNginxOpts(nginx.Config{
		Port: 8080, MaxRequests: 1,
		Version: nginx.VersionVulnerable,
		Protect: "ngx_http_process_request_line",
	}, true, nil, boot.WithRecorder(rec))
	if err != nil {
		return cell, err
	}
	ex, err := workload.BuildCVE2013_2028(h.env.Img, "/pwned")
	if err != nil {
		return cell, err
	}
	if err := ex.Deliver(h.client, 8080); err != nil {
		return cell, fmt.Errorf("survival kill-both attack: %w", err)
	}
	werr := <-h.done
	cell.WorkerAlive = werr == nil
	if werr != nil {
		cell.WorkerErr = werr.Error()
	}
	for _, a := range h.mon.Alarms() {
		if a.Reason == core.AlarmFollowerFault {
			cell.Detected++
		}
	}
	cell.Pwned = h.env.Kernel.FS().DirExists("/pwned")
	cell.LeaderOnly = rec.Metrics().Counter("region.leader_only")
	return cell, nil
}

// survivalScenario is one (fault, policy, mode) cell of the
// repeating-fault matrix.
func survivalScenario(f faultPlan, pol core.DivergencePolicy, mode core.LockstepMode) Scenario {
	s := baseScenario.withPlan(f)
	s.Policy, s.Mode, s.Regions = pol, mode, survivalRegions
	return s
}

// sweepScenario runs the sustained-recovery fault (repeat-every:8, three
// rollbacks across six regions, never escalating) under PolicyRollback
// with one checkpoint cadence.
func sweepScenario(interval clock.Cycles) Scenario {
	s := survivalScenario(survivalFaults[1], core.PolicyRollback, core.LockstepStrict)
	s.Interval = interval
	return s
}

// survivalMatrix is the fault x policy x lockstep-mode matrix.
func survivalMatrix() []Scenario {
	var scs []Scenario
	for _, f := range survivalFaults {
		for _, pol := range survivalPolicies {
			for _, mode := range lockstepModes {
				scs = append(scs, survivalScenario(f, pol, mode))
			}
		}
	}
	return scs
}

// survivalSweep is the checkpoint-cadence axis: entry-only (0), the
// -snapshot-interval default, and a tight cadence that re-captures inside
// every region.
func survivalSweep() []Scenario {
	var scs []Scenario
	for _, iv := range []clock.Cycles{0, core.DefaultSnapshotInterval, 20_000} {
		scs = append(scs, sweepScenario(iv))
	}
	return scs
}

// Survival runs the full continuous-attack benchmark.
func Survival(seed int64) (*SurvivalResult, error) {
	res := &SurvivalResult{Seed: seed}

	nativeRPS, err := runSurvivalNative(survivalAttacks)
	if err != nil {
		return nil, err
	}
	res.Attack = append(res.Attack, SurvivalAttackCell{
		Mode: "native", Attacks: 0, BenignSent: survivalAttacks,
		BenignOK: survivalAttacks, WorkerAlive: true, RPS: nativeRPS, PctNative: 100,
	})
	for _, m := range []struct {
		name string
		mode core.LockstepMode
	}{
		{"rollback-strict", core.LockstepStrict},
		{"rollback-pipelined", core.LockstepPipelined},
	} {
		cell, err := runSurvivalAttackCell(m.name, m.mode, nativeRPS)
		if err != nil {
			return nil, err
		}
		res.Attack = append(res.Attack, cell)
	}
	ref, err := runSurvivalKillBoth()
	if err != nil {
		return nil, err
	}
	res.Attack = append(res.Attack, ref)

	if res.Matrix, err = runSlice(seed, survivalMatrix()); err != nil {
		return nil, fmt.Errorf("survival matrix: %w", err)
	}
	if res.Sweep, err = runSlice(seed, survivalSweep()); err == nil {
		err = mustSurvive(res.Sweep)
	}
	if err != nil {
		return nil, fmt.Errorf("survival sweep: %w", err)
	}
	return res, nil
}

// String renders the three survival tables.
func (r *SurvivalResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Survivable MVX: continuous-attack benchmark (seed %d)\n\n", r.Seed)

	fmt.Fprintf(&b, "nginx CVE-2013-2028 delivered %dx with a benign GET after each attack:\n", survivalAttacks)
	fmt.Fprintf(&b, "%-19s %7s %8s %9s %7s %6s %6s %6s %7s %10s %7s %6s\n",
		"mode", "attacks", "detected", "rollbacks", "aborts", "benign", "served", "pwned", "ldr-only", "req/s", "pct", "alive")
	for _, c := range r.Attack {
		fmt.Fprintf(&b, "%-19s %7d %8d %9d %7d %6d %6d %6v %8d %10.1f %6.1f%% %6v\n",
			c.Mode, c.Attacks, c.Detected, c.Rollbacks, c.RegionAborts,
			c.BenignSent, c.BenignOK, c.Pwned, c.LeaderOnly, c.RPS, c.PctNative, c.WorkerAlive)
	}
	b.WriteString("(paper baseline: sMVX web servers run at 53-71% of native under A^8;\n")
	b.WriteString(" the rollback rows show throughput retained while under active attack)\n\n")

	fmt.Fprintf(&b, "repeating-fault matrix, %d regions per cell (fault x policy x lockstep):\n", survivalRegions)
	fmt.Fprintf(&b, "%-28s %-17s %-10s %8s %9s %9s %7s %9s %s\n",
		"fault", "policy", "mode", "regions", "injected", "rollbacks", "aborts", "unhandled", "outcome")
	for _, c := range r.Matrix {
		fmt.Fprintf(&b, "%-28s %-17s %-10s %7d/%d %9d %9d %7d %9d %s\n",
			c.Fault, c.Policy, c.Mode, c.Completed, c.Regions,
			c.Injected, c.Rollbacks, c.RegionAborts, c.Unhandled, c.Outcome)
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "snapshot-interval sweep (rollback, arg-flip@4:repeat-every:8, %d regions):\n", survivalRegions)
	fmt.Fprintf(&b, "%-12s %9s %9s %14s %15s %10s %13s\n",
		"interval", "snapshots", "rollbacks", "capture-cyc", "recovery-cyc", "redo-B", "total-cyc")
	for _, row := range r.Sweep {
		iv := "entry-only"
		if row.Interval > 0 {
			iv = fmt.Sprintf("%d", row.Interval)
		}
		fmt.Fprintf(&b, "%-12s %9d %9d %14d %15d %10d %13d\n",
			iv, row.Snapshots, row.Rollbacks, row.CaptureCycles,
			row.RecoveryCycles, row.RedoBytes, row.Cycles)
	}
	return b.String()
}

// RecordMetrics folds the benchmark into the registry. Integrity and
// detection series are recorded as lower-is-better violation counts
// (undetected attacks, failed benign requests, pwned flags) so the gate's
// one-sided band catches the regression direction that matters; rps and
// pct-of-native stay ungated (higher-is-better).
func (r *SurvivalResult) RecordMetrics(bench *obs.Metrics) {
	b01 := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	for _, c := range r.Attack {
		p := "survival.attack." + obs.SanitizeName(c.Mode) + "."
		bench.SetGauge(p+"undetected", float64(c.Attacks-c.Detected))
		bench.SetGauge(p+"benign_failed", float64(c.BenignSent-c.BenignOK))
		bench.SetGauge(p+"pwned", b01(c.Pwned))
		bench.SetGauge(p+"leader_only", float64(c.LeaderOnly))
		bench.SetGauge(p+"escalated", b01(c.Escalated))
		bench.SetGauge(p+"worker_dead", b01(!c.WorkerAlive))
		bench.SetGauge(p+"rollbacks", float64(c.Rollbacks))
		bench.SetGauge(p+"region_aborts", float64(c.RegionAborts))
		bench.SetGauge(p+"snapshots", float64(c.Snapshots))
		bench.SetGauge(p+"rps", c.RPS)
		bench.SetGauge(p+"pct_native", c.PctNative)
	}
	for _, c := range r.Matrix {
		bench.Inc("survival.matrix.cells")
		bench.Inc("survival.matrix.outcome." + obs.SanitizeName(c.Outcome))
		if !c.Survived {
			bench.Inc("survival.matrix.leader_dead")
		}
		bench.Add("survival.matrix.rollbacks", uint64(c.Rollbacks))
		if c.Escalated {
			bench.Inc("survival.matrix.escalations")
		}
	}
	for _, row := range r.Sweep {
		iv := "entry_only"
		if row.Interval > 0 {
			iv = fmt.Sprintf("i%d", row.Interval)
		}
		p := "survival.sweep." + iv + "."
		bench.SetGauge(p+"snapshots", float64(row.Snapshots))
		bench.SetGauge(p+"rollbacks", float64(row.Rollbacks))
		bench.SetGauge(p+"capture_cycles", float64(row.CaptureCycles))
		bench.SetGauge(p+"recovery_cycles", float64(row.RecoveryCycles))
		bench.SetGauge(p+"redo_bytes", float64(row.RedoBytes))
		bench.SetGauge(p+"total_cycles", float64(row.Cycles))
	}
}
