// Package cli is the shared run-configuration surface of the smvx
// binaries. Every tool (smvx, experiments, smvx-profile, smvx-taint)
// registers the same flag set — observability plane, divergence policy,
// chaos injection, lockstep mode — and resolves it through one
// Config → Runtime step that yields the boot options and core options the
// rest of the run consumes. Before this package each binary re-derived
// the wiring by hand and the surfaces drifted; now a flag learned by one
// tool is learned by all of them.
package cli

import (
	"flag"
	"fmt"
	"os"
	"time"

	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/faultinject"
	"smvx/internal/obs"
	"smvx/internal/obs/anomaly"
	"smvx/internal/obs/blackbox"
	"smvx/internal/obs/incident"
	"smvx/internal/obs/ledger"
	"smvx/internal/obs/replay"
	"smvx/internal/obs/telemetry"
	"smvx/internal/perfprof"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
)

// Config is the parsed shared flag surface. Zero value + Register +
// flag.Parse is the normal path; tests may fill fields directly.
type Config struct {
	Seed               int64
	Trace              string
	Metrics            bool
	Forensics          bool
	Telemetry          string
	Linger             time.Duration
	Blackbox           string
	Policy             string
	RestartBudget      int
	SnapshotInterval   uint64
	RollbackBudget     int
	RendezvousDeadline uint64
	Chaos              string
	ChaosSeed          int64
	Lockstep           string
	LagWindow          int
	Variants           int
	Ledger             bool
	RequestP99         uint64
	Anomaly            bool
	Incidents          bool
	IncidentWindow     uint64

	// NeedRecorder forces a flight recorder even when no tracing flag asked
	// for one (cmd/smvx prints the recorder's own metrics table for
	// -metrics; cmd/experiments keeps a separate benchmark registry).
	NeedRecorder bool
	// NeedSampler forces the virtual-cycle sampler on even without
	// -telemetry (smvx-profile's flame mode reads it directly).
	NeedSampler bool
	// Quiet suppresses Finish's metrics/forensics/trace emission for
	// binaries that render those artifacts themselves.
	Quiet bool
}

// Register installs the shared flags on fs (usually flag.CommandLine).
func (c *Config) Register(fs *flag.FlagSet) {
	fs.Int64Var(&c.Seed, "seed", 42, "determinism seed")
	fs.StringVar(&c.Trace, "trace", "", "write a Chrome trace_event JSON of the run to this file")
	fs.BoolVar(&c.Metrics, "metrics", false, "print the collected metrics table after the run")
	fs.BoolVar(&c.Forensics, "forensics", false, "print flight-recorder forensics reports for any alarms")
	fs.StringVar(&c.Telemetry, "telemetry", "", "serve live telemetry on this address (e.g. :9090): /metrics /healthz /trace.json /forensics /profile /blackbox")
	fs.DurationVar(&c.Linger, "linger", 0, "keep the telemetry server up this long after the run (with -telemetry)")
	fs.StringVar(&c.Blackbox, "blackbox", "", "spill every recorded event to a black-box trace WAL in this directory (inspect with smvx-replay)")
	fs.StringVar(&c.Policy, "policy", "kill-both", "divergence policy: kill-both | leader-continue | restart-follower | rollback")
	fs.IntVar(&c.RestartBudget, "restart-budget", core.DefaultRestartBudget, "follower re-clones before restart-follower degrades to leader-continue")
	fs.Uint64Var(&c.SnapshotInterval, "snapshot-interval", uint64(core.DefaultSnapshotInterval), "virtual-cycle cadence between rollback checkpoints (with -policy rollback; 0 keeps only each region's entry checkpoint)")
	fs.IntVar(&c.RollbackBudget, "rollback-budget", core.DefaultRollbackBudget, "consecutive same-ordinal rollbacks before the rollback policy escalates to kill-both")
	fs.Uint64Var(&c.RendezvousDeadline, "rendezvous-deadline", uint64(core.DefaultRendezvousDeadline), "virtual-cycle rendezvous deadline (0 disables the watchdog)")
	fs.StringVar(&c.Chaos, "chaos", "", "inject follower faults: comma-separated kind[@call][:bit][:variant:K][:repeat-every:N] (follower-crash, arg-flip, ipc-truncate, stall, emu-corrupt)")
	fs.Int64Var(&c.ChaosSeed, "chaos-seed", 0, "seed deriving @call-less chaos ordinals (default: -seed)")
	fs.StringVar(&c.Lockstep, "lockstep", "strict", "lockstep mode: strict | pipelined")
	fs.IntVar(&c.LagWindow, "lag-window", core.DefaultLagWindow, "pipelined lockstep run-ahead window, in libc calls")
	fs.IntVar(&c.Variants, "variants", core.DefaultVariants, "variant-set size: the leader plus N-1 diversified followers, majority-voted at each rendezvous (2 = the paper's pair)")
	fs.BoolVar(&c.Ledger, "ledger", false, "account every protected-region libc call phase-by-phase in the rendezvous cost ledger (served at /ledger, printed with -metrics)")
	fs.Uint64Var(&c.RequestP99, "request-p99", 0, "degrade /healthz (with -telemetry) once the served-request p99 exceeds this many virtual cycles (0 disables; the first divergence alarm always degrades it)")
	fs.BoolVar(&c.Anomaly, "anomaly", false, "run streaming anomaly detectors (EWMA z-score, rate-of-change, static threshold) over the recorder's metric series")
	fs.BoolVar(&c.Incidents, "incidents", false, "correlate alarms, faults, detaches, restarts, rollbacks, and anomalies into incidents (served at /incidents, rebuilt offline with smvx-replay tables); implies -anomaly")
	fs.Uint64Var(&c.IncidentWindow, "incident-window", 0, "incident correlation window in virtual cycles (0 uses the default)")
}

// EffectiveChaosSeed is the seed chaos ordinals derive from: -chaos-seed,
// falling back to -seed.
func (c *Config) EffectiveChaosSeed() int64 {
	if c.ChaosSeed != 0 {
		return c.ChaosSeed
	}
	return c.Seed
}

// Runtime is the resolved run plumbing: the observability plane plus the
// monitor options every core.Monitor of this run shares. All pointer
// fields may be nil — a zero plane is "observability off".
type Runtime struct {
	Recorder  *obs.Recorder
	Sampler   *perfprof.Sampler
	Telemetry *telemetry.Server
	Blackbox  *blackbox.Writer
	Chaos     *faultinject.Plan
	Ledger    *ledger.Ledger
	Fleet     *obs.Fleet
	Anomaly   *anomaly.Detector
	Incidents *incident.Engine

	cfg     *Config
	monOpts []core.Option
}

// Resolve validates the configuration and builds the run plumbing. labels
// annotate the black-box WAL's metadata (app name, artifact, ...).
func (c *Config) Resolve(labels map[string]string) (*Runtime, error) {
	rt := &Runtime{cfg: c}

	pol, err := core.ParsePolicy(c.Policy)
	if err != nil {
		return nil, err
	}
	mode, err := core.ParseLockstepMode(c.Lockstep)
	if err != nil {
		return nil, err
	}
	if c.Variants == 0 {
		c.Variants = core.DefaultVariants
	}
	if c.Variants < 2 || c.Variants > core.MaxVariants {
		return nil, fmt.Errorf("-variants %d out of range (want 2..%d)", c.Variants, core.MaxVariants)
	}
	rt.monOpts = []core.Option{
		core.WithVariants(c.Variants),
		core.WithPolicy(pol),
		core.WithRestartBudget(c.RestartBudget),
		core.WithSnapshotInterval(clock.Cycles(c.SnapshotInterval)),
		core.WithRollbackBudget(c.RollbackBudget),
		core.WithRendezvousDeadline(clock.Cycles(c.RendezvousDeadline)),
		core.WithLockstepMode(mode),
		core.WithLagWindow(c.LagWindow),
	}
	// The run labels annotate the black-box WAL's meta, and the derived
	// tables are built from them with the constructor smvx-replay rebuilds
	// them with, so a replayed table is configured like the live one.
	wl := make(map[string]string, len(labels)+7)
	for k, v := range labels {
		wl[k] = v
	}
	replay.SetTableLabels(wl, mode.String(), pol.String(), c.LagWindow, c.Incidents, c.IncidentWindow)
	wl["variants"] = fmt.Sprintf("%d", c.Variants)
	if pol == core.PolicyRollback {
		// Stamp the survivable-MVX knobs so an offline inspection of a
		// rollback run is labeled like the live one.
		wl["snapshot-interval"] = fmt.Sprintf("%d", c.SnapshotInterval)
		wl["rollback-budget"] = fmt.Sprintf("%d", c.RollbackBudget)
	}
	tables := replay.NewTables(wl)
	if c.Ledger {
		rt.Ledger = tables.Ledger
		rt.monOpts = append(rt.monOpts, core.WithLedger(rt.Ledger))
	}

	if c.Chaos != "" {
		plan, err := faultinject.Parse(c.Chaos, c.EffectiveChaosSeed())
		if err != nil {
			return nil, err
		}
		rt.Chaos = plan
	}

	if c.Trace != "" || c.Forensics || c.Telemetry != "" || c.Blackbox != "" ||
		c.Anomaly || c.Incidents || c.NeedRecorder {
		rt.Recorder = obs.NewRecorder(obs.Config{})
		// A recorder implies request spans are wanted: the fleet aggregate
		// is cheap and feeds /fleet, /healthz, and the -metrics summary.
		rt.Fleet = tables.Fleet
	}
	// Mirror the ledger's cells into the recorder (and through it into
	// the WAL) at each region end and at Seal, so smvx-replay can rebuild
	// the ledger offline.
	rt.Ledger.SetRecorder(rt.Recorder)
	if c.Blackbox != "" {
		cfg := rt.Recorder.Config()
		w, err := blackbox.Open(c.Blackbox, blackbox.Meta{
			Capacity: cfg.Capacity, ForensicWindow: cfg.ForensicWindow,
			Labels: wl,
		}, blackbox.Options{Metrics: rt.Recorder.Metrics()})
		if err != nil {
			return nil, err
		}
		rt.Blackbox = w
		rt.Recorder.SetSink(w)
	}
	if c.Incidents {
		// The engine taps the recorder: it sees every event under the
		// recorder lock, in exactly WAL order, which is what makes the
		// offline rebuild byte-identical. Sources are attached after the
		// WAL opens so bundles can reference the live segment.
		rt.Incidents = tables.Incidents
		rt.Incidents.SetSources(rt.Ledger, rt.Fleet, rt.Blackbox)
		rt.Recorder.SetTap(rt.Incidents)
	}
	if c.Anomaly || c.Incidents {
		// The detector consumes the series feed outside the recorder lock,
		// so its firings can record EvAnomaly events back into the stream
		// (and through it, the WAL and the incident tap).
		rt.Anomaly = anomaly.New(rt.Recorder, anomaly.Defaults())
		rt.Recorder.SetSeriesSink(rt.Anomaly)
	}
	if c.NeedSampler {
		rt.Sampler = perfprof.NewSampler(0)
	}
	if c.Telemetry != "" {
		if rt.Sampler == nil {
			rt.Sampler = perfprof.NewSampler(0)
		}
		rt.Telemetry = telemetry.New(rt.Recorder,
			telemetry.WithRequestP99(c.RequestP99),
			telemetry.WithProfile(rt.Sampler),
			telemetry.WithBlackbox(rt.Blackbox),
			telemetry.WithLedger(rt.Ledger),
			telemetry.WithFleet(rt.Fleet),
			telemetry.WithIncidents(rt.Incidents))
		addr, err := rt.Telemetry.Start(c.Telemetry)
		if err != nil {
			return nil, err
		}
		fmt.Printf("telemetry: http://%s/metrics (healthz, trace.json, forensics, profile, blackbox, ledger, fleet)\n", addr)
	}
	return rt, nil
}

// BootOptions returns the boot options that attach the plane to a process.
func (rt *Runtime) BootOptions(seed int64) []boot.Option {
	opts := []boot.Option{boot.WithSeed(seed)}
	if rt.Recorder != nil {
		opts = append(opts, boot.WithRecorder(rt.Recorder))
	}
	if rt.Sampler != nil {
		opts = append(opts, boot.WithSampler(rt.Sampler))
	}
	return opts
}

// MonitorOptions returns a copy of the resolved core options — policy,
// restart budget, rendezvous deadline, lockstep mode, lag window — for
// callers that build monitors themselves (the experiments drivers).
func (rt *Runtime) MonitorOptions() []core.Option {
	return append([]core.Option{}, rt.monOpts...)
}

// Boot is the single boot path of the smvx binaries: it builds the
// simulated process wired to the observability plane and, when withMVX is
// set, the monitor carrying every resolved run option — variant count,
// policy, lockstep mode, chaos plan — so no binary can re-derive that
// wiring by hand and drift on a flag the others learned.
func (rt *Runtime) Boot(k *kernel.Kernel, prog *machine.Program, seed int64, withMVX bool) (*boot.Env, *core.Monitor, error) {
	env, err := boot.NewEnv(k, prog, rt.BootOptions(seed)...)
	if err != nil {
		return nil, nil, err
	}
	var mon *core.Monitor
	if withMVX {
		mon = rt.NewMonitor(env, seed)
	}
	return env, mon, nil
}

// NewMonitor builds a monitor with the resolved options followed by opts,
// installs the chaos plan (if any) at the machine's libc choke point, and
// points telemetry's /healthz at it.
func (rt *Runtime) NewMonitor(env *boot.Env, seed int64, opts ...core.Option) *core.Monitor {
	all := append([]core.Option{core.WithSeed(seed), core.WithRecorder(env.Obs)}, rt.monOpts...)
	mon := core.New(env.Machine, env.LibC, append(all, opts...)...)
	if rt.Chaos != nil {
		rt.Chaos.Install(env.Machine, env.Obs)
	}
	rt.AttachMonitor(mon)
	return mon
}

// AttachMonitor points /healthz at a freshly created monitor.
func (rt *Runtime) AttachMonitor(mon *core.Monitor) {
	if rt.Telemetry != nil && mon != nil {
		rt.Telemetry.SetHealth(telemetry.Health{
			Phase:        mon.Phase,
			FollowerLive: mon.FollowerLive,
			Lockstep:     mon.LockstepConfig,
			Rollback: func() (int, int, bool) {
				return mon.Snapshots(), mon.Rollbacks(), mon.Escalated()
			},
		})
	}
}

// Seal ends the run's recorded stream: it flushes every cost-ledger
// region, in name order, into the recorder — a region whose leader never
// reached mvx_end (a kill-both leader that crashed mid-region) has
// flushed nothing yet — and then seals the black-box WAL, if one is open.
// Finish calls it; code that replays a run's WAL without Finish seals it
// here too.
func (rt *Runtime) Seal() error {
	rt.Ledger.Flush()
	if rt.Blackbox == nil {
		return nil
	}
	return rt.Blackbox.Close()
}

// Finish quiesces the plane after the run: linger the telemetry server,
// seal the run (Seal), publish derived metrics, and — unless Quiet —
// emit the metrics table, forensics reports, and Chrome trace the flags
// asked for. Safe to call on a plane with nothing attached.
func (rt *Runtime) Finish() error {
	if rt.Telemetry != nil {
		defer rt.Telemetry.Close()
		if rt.cfg.Linger > 0 {
			fmt.Printf("telemetry: run finished, serving for another %s\n", rt.cfg.Linger)
			time.Sleep(rt.cfg.Linger)
		}
	}
	rec := rt.Recorder
	if rec == nil {
		return nil
	}
	if err := rt.Seal(); err != nil {
		fmt.Fprintf(os.Stderr, "blackbox WAL incomplete: %v\n", err)
	} else if rt.Blackbox != nil {
		fmt.Printf("blackbox WAL sealed in %s (inspect with smvx-replay)\n", rt.Blackbox.Dir())
	}
	rec.PublishDerived()
	if rt.cfg.Quiet {
		return nil
	}
	if rt.cfg.Metrics {
		fmt.Println(rec.Metrics().TableText())
		if rt.Ledger != nil {
			fmt.Println(rt.Ledger.TableText())
		}
		if rt.Fleet != nil {
			if _, completed, aborted, _ := rt.Fleet.Totals(); completed+aborted > 0 {
				fmt.Println(rt.Fleet.TableText())
			}
		}
		if rt.Incidents != nil {
			fmt.Println(rt.Incidents.TableText())
		}
	}
	if rt.cfg.Forensics {
		reports := rec.ForensicReports()
		if len(reports) == 0 {
			fmt.Println("forensics: no alarms recorded")
		}
		for _, rep := range reports {
			fmt.Println(rep)
		}
	}
	if rt.cfg.Trace != "" {
		if err := WriteChromeTrace(rec, rt.cfg.Trace); err != nil {
			return err
		}
		fmt.Printf("chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", rt.cfg.Trace)
	}
	return nil
}

// WriteChromeTrace dumps the recorder's events as Chrome trace_event JSON.
func WriteChromeTrace(rec *obs.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := rec.WriteChromeTrace(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
