package main

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"smvx/internal/boot"
	"smvx/internal/cli"
	"smvx/internal/core"
	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
)

// endToEnd is what a user of the system sees, measured with tracing off.
// BENCHMARK.json repeats this table; the package test keeps the two equal.
// bound is the share of the parent's median by which a metric may worsen.
// The sim_ metrics are read off the virtual clocks.
var endToEnd = []struct {
	name, unit, better string
	bound              float64
}{
	{"host_rps", "req/s", "higher", 0.25},
	{"host_allocs_per_req", "allocs/req", "lower", 0.05},
	{"host_alloc_kb_per_req", "KiB/req", "lower", 0.05},
	{"host_heap_mb", "MB", "lower", 0.1},
	{"sim_rps", "req/sim_s", "higher", 0.02},
	{"sim_p50_cycles", "cycles", "lower", 0.05},
	{"sim_p99_cycles", "cycles", "lower", 0.05},
	{"sim_cpu_cycles_per_req", "cycles/req", "lower", 0.02},
	{"sim_rss_kb", "KiB", "lower", 0.02},
	{"ok_frac", "fraction", "higher", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// layerMetric is one per-layer number of the traced run, tagged with the
// end-to-end metric it should move and, in works, the workloads where the
// layer does the work -> the workloads where the prediction is no change.
// Values are per served request unless the unit says otherwise.
type layerMetric struct {
	name, unit, moves, works string
}

const (
	monitored = "nginx-strict, nginx-pipelined-n3 -> nginx-native"
	attacked  = "nginx-rollback-attack -> the three clean workloads"
	plane     = "nginx-rollback-attack -> the other three, which attach only recorder and fleet"
)

var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"core.invoke.per_req", "1/req", "host_rps", monitored},
		{"core.invoke.host_us", "us/req", "host_rps", monitored},
		{"core.invoke.self_us", "us/req", "host_rps", monitored},
	}
	lockstep := "nginx-strict (pair path), nginx-pipelined-n3 (ring and vote) -> nginx-native"
	for _, l := range []string{"leader", "follower", "passthrough"} {
		ms = append(ms,
			layerMetric{"core.intercept." + l + ".per_req", "1/req", "host_rps, host_allocs_per_req", lockstep},
			layerMetric{"core.intercept." + l + ".host_ns", "ns/req", "host_rps, host_allocs_per_req", lockstep})
	}
	for _, c := range []string{"local", "pipelined", "barrier"} {
		ms = append(ms, layerMetric{"core.intercept.leader." + c + ".host_ns", "ns/req", "host_rps", lockstep})
	}
	creation := "nginx-strict, doubled on nginx-pipelined-n3 -> nginx-native"
	ms = append(ms,
		layerMetric{"core.create.cycles", "cycles/req", "sim_rps, sim_p99_cycles, sim_cpu_cycles_per_req", creation},
		layerMetric{"core.create.heap_scan_cycles.first", "cycles", "sim_rps, sim_p99_cycles, sim_cpu_cycles_per_req", creation},
		layerMetric{"core.create.heap_scan_cycles.last", "cycles", "sim_rps, sim_p99_cycles, sim_cpu_cycles_per_req", creation},
		layerMetric{"core.region.libc_calls", "calls/req", "sim_rps, sim_cpu_cycles_per_req", creation},
		layerMetric{"core.region.emulated_bytes", "B/req", "sim_rps, sim_cpu_cycles_per_req", creation},
	)
	for p := ledger.Phase(0); p < ledger.NumPhases; p++ {
		works := "all three monitored workloads -> nginx-native"
		switch p {
		case ledger.PhaseRendezvous, ledger.PhaseWait, ledger.PhaseCompare, ledger.PhaseEmulate:
			works = "nginx-strict -> nginx-native"
		case ledger.PhaseEnqueue, ledger.PhaseDrain, ledger.PhaseBarrier:
			works = "nginx-pipelined-n3 -> nginx-strict, nginx-native"
		case ledger.PhaseSnapshot, ledger.PhaseRestore:
			works = attacked
		}
		moves := "sim_rps (leader), sim_cpu_cycles_per_req (all variants)"
		ms = append(ms,
			layerMetric{"ledger." + p.String() + ".cycles_per_req", "cycles/req", moves, works},
			layerMetric{"ledger." + p.String() + ".count_per_req", "1/req", moves, works})
	}
	ms = append(ms,
		layerMetric{"core.alarms", "1/req", "ok_frac, sim_p99_cycles", attacked},
		layerMetric{"core.rollbacks", "1/req", "ok_frac, sim_p99_cycles", attacked},
		layerMetric{"core.snapshots", "1/req", "ok_frac, sim_p99_cycles", attacked},
		layerMetric{"core.region_aborts", "1/req", "ok_frac, sim_p99_cycles", attacked},
		layerMetric{"core.escalated", "count", "ok_frac", attacked},
		layerMetric{"core.snapshot.capture_cycles", "cycles/region", "sim_p99_cycles", attacked},
		layerMetric{"core.rollback.recovery_cycles", "cycles/rollback", "sim_p99_cycles", attacked},
		layerMetric{"core.snapshot.resident_pages", "pages", "sim_p99_cycles", attacked},
	)
	recorder := "host_rps, host_allocs_per_req, host_alloc_kb_per_req"
	ms = append(ms,
		layerMetric{"obs.recorder.events_per_req", "1/req", recorder, plane},
		layerMetric{"obs.recorder.evicted", "1/req", recorder, plane},
		layerMetric{"obs.sink.events_per_req", "1/req", recorder, plane},
		layerMetric{"obs.sink.host_ns", "ns/req", recorder, plane},
		layerMetric{"obs.sink.flushes", "1/req", recorder, plane},
		layerMetric{"obs.sink.flush_us", "us/req", recorder, plane},
		layerMetric{"obs.tap.host_ns", "ns/req", recorder, plane},
		layerMetric{"obs.series.per_req", "1/req", recorder, plane},
		layerMetric{"obs.series.host_ns", "ns/req", recorder, plane},
		layerMetric{"blackbox.kb_per_req", "KiB/req", recorder, plane},
		layerMetric{"incident.opened", "1/req", recorder, plane},
	)
	substrate := "nginx-native -> diluted in the three monitored workloads"
	ms = append(ms,
		layerMetric{"libc.calls_per_req", "calls/req", "host_rps, sim_rps", substrate},
		layerMetric{"kernel.syscalls_per_req", "calls/req", "host_rps, sim_rps", substrate},
		layerMetric{"kernel.client.connect_us", "us", "host_rps", substrate},
		layerMetric{"kernel.client.request_us.p50", "us", "host_rps", substrate},
		layerMetric{"kernel.client.request_us.p90", "us", "host_rps", substrate},
		layerMetric{"mem.rss_kb.growth", "KiB", "sim_rss_kb, core.create.heap_scan_cycles.last",
			"nginx-strict, nginx-pipelined-n3 -> nginx-native grows little"},
	)
	gc := "all workloads, most on nginx-rollback-attack"
	ms = append(ms,
		layerMetric{"go.gc.per_kreq", "1/kreq", "host_rps, following host_alloc_kb_per_req", gc},
		layerMetric{"go.gc.pause_us_per_req", "us/req", "host_rps, following host_alloc_kb_per_req", gc},
		layerMetric{"go.gc.cpu_frac", "fraction", "host_rps, following host_alloc_kb_per_req", gc},
		layerMetric{"trace.overhead_frac", "fraction", "none: the cost of tracing itself", "all workloads"},
	)
	for _, mb := range micros {
		ms = append(ms,
			layerMetric{mb.name + ".ns_per_op", "ns/op", mb.moves, mb.works},
			layerMetric{mb.name + ".allocs_per_op", "allocs/op", mb.moves, mb.works})
	}
	return ms
}()

// per divides, reading 0 for an empty denominator.
func per(x float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return x / float64(n)
}

// simValues reads the simulated end-to-end metrics off one finished round.
// Cycle totals cover the whole round, boot included, as Fig. 7 counts
// them; the worker has exited, so every reading is final.
func simValues(env *boot.Env, fleet *obs.Fleet, served int) map[string]float64 {
	v := map[string]float64{
		"sim_cpu_cycles_per_req": per(float64(env.Counter.Cycles()), served),
		"sim_rss_kb":             float64(env.ResidentKB()),
	}
	if wall := env.Wall.Cycles(); wall > 0 {
		v["sim_rps"] = float64(served) / (float64(wall) / clock.FrequencyHz)
	}
	if snap := fleet.Snapshot(); len(snap.Apps) > 0 {
		v["sim_p50_cycles"] = float64(snap.Apps[0].P50Cycles)
		v["sim_p99_cycles"] = float64(snap.Apps[0].P99Cycles)
	}
	return v
}

// layerValues reads the per-layer metrics of one finished round: the
// program's own counters through its getters, plus the host timings the
// tracer's wrappers took (all zero on an untraced round).
func layerValues(env *boot.Env, rt *cli.Runtime, mon *core.Monitor, tr *tracer, c *client, served, rssGrowth int) map[string]float64 {
	v := make(map[string]float64)
	n := func(x float64) float64 { return per(x, served) }

	invoke := tr.stat(layerInvoke)
	v["core.invoke.per_req"] = n(float64(invoke.n))
	v["core.invoke.host_us"] = n(float64(invoke.ns) / 1e3)
	v["core.invoke.self_us"] = n(float64(invoke.ns-tr.leaderInRegionNs()) / 1e3)
	for _, l := range []layer{layerLeader, layerFollower, layerPassthrough} {
		s := tr.stat(l)
		v["core.intercept."+l.short()+".per_req"] = n(float64(s.n))
		v["core.intercept."+l.short()+".host_ns"] = n(float64(s.ns))
	}
	for _, class := range []libc.SyncClass{libc.SyncLocal, libc.SyncPipelined, libc.SyncBarrier} {
		v["core.intercept.leader."+class.String()+".host_ns"] = n(float64(tr.leaderClassNs(class)))
	}

	if mon != nil {
		var create, calls, emulated float64
		var regions int
		var first, last float64
		for _, r := range mon.Reports() {
			regions++
			calls += float64(r.LibcCalls)
			emulated += float64(r.EmulatedBytes)
			if tot := r.Creation.Total(); tot > 0 {
				create += float64(tot)
				if first == 0 {
					first = float64(r.Creation.HeapScanCycles)
				}
				last = float64(r.Creation.HeapScanCycles)
			}
		}
		v["core.create.cycles"] = n(create)
		v["core.create.heap_scan_cycles.first"] = first
		v["core.create.heap_scan_cycles.last"] = last
		v["core.region.libc_calls"] = n(calls)
		v["core.region.emulated_bytes"] = n(emulated)

		m := rt.Recorder.Metrics()
		v["core.alarms"] = n(float64(len(mon.Alarms())))
		v["core.rollbacks"] = n(float64(mon.Rollbacks()))
		v["core.snapshots"] = n(float64(mon.Snapshots()))
		v["core.region_aborts"] = n(float64(m.Counter("rollback.region_aborts")))
		if mon.Escalated() {
			v["core.escalated"] = 1
		}
		v["core.snapshot.capture_cycles"] = per(float64(m.HistSum("snapshot.capture.cycles")), regions)
		v["core.rollback.recovery_cycles"] = per(float64(m.HistSum("rollback.recovery.cycles")), mon.Rollbacks())
		pages, _ := m.Gauge("snapshot.resident.pages")
		v["core.snapshot.resident_pages"] = pages
	}

	var count, cycles [ledger.NumPhases]float64
	for _, rs := range rt.Ledger.Snapshot().Regions {
		for _, cl := range rs.Cells {
			for p := ledger.Phase(0); p < ledger.NumPhases; p++ {
				if cl.Phase == p.String() {
					count[p] += float64(cl.Count)
					cycles[p] += float64(cl.Cycles)
				}
			}
		}
	}
	for p := ledger.Phase(0); p < ledger.NumPhases; p++ {
		v["ledger."+p.String()+".cycles_per_req"] = n(cycles[p])
		v["ledger."+p.String()+".count_per_req"] = n(count[p])
	}

	rec := rt.Recorder
	sink, flush := tr.stat(layerSink), tr.stat(layerFlush)
	tap, series := tr.stat(layerTap), tr.stat(layerSeries)
	v["obs.recorder.events_per_req"] = n(float64(rec.Total()))
	v["obs.recorder.evicted"] = n(float64(rec.Evicted()))
	v["obs.sink.events_per_req"] = n(float64(sink.n))
	v["obs.sink.host_ns"] = n(float64(sink.ns))
	v["obs.sink.flushes"] = n(float64(flush.n))
	v["obs.sink.flush_us"] = n(float64(flush.ns) / 1e3)
	v["obs.tap.host_ns"] = n(float64(tap.ns))
	v["obs.series.per_req"] = n(float64(series.n))
	v["obs.series.host_ns"] = n(float64(series.ns))
	v["blackbox.kb_per_req"] = n(float64(rec.Metrics().Counter("blackbox.bytes.written")) / 1024)
	v["incident.opened"] = n(float64(rt.Incidents.Count()))

	v["libc.calls_per_req"] = n(float64(env.LibC.TotalCalls()))
	v["kernel.syscalls_per_req"] = n(float64(env.Proc.SyscallTotal()))
	v["kernel.client.connect_us"] = mean(c.connect) / 1e3
	v["kernel.client.request_us.p50"] = quantile(c.requests, 0.5) / 1e3
	v["kernel.client.request_us.p90"] = quantile(c.requests, 0.9) / 1e3
	v["mem.rss_kb.growth"] = float64(rssGrowth)
	return v
}

func mean(ds []time.Duration) float64 {
	var sum float64
	for _, d := range ds {
		sum += float64(d)
	}
	return per(sum, len(ds))
}

// quantile returns the q-quantile of ds by nearest rank, in nanoseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// gcCPU is a reading of the runtime's estimate of CPU time spent in the
// garbage collector and of the CPU time available in total.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	var g gcCPU
	if s[0].Value.Kind() == rtmetrics.KindFloat64 && s[1].Value.Kind() == rtmetrics.KindFloat64 {
		g = gcCPU{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
	}
	return g
}

// frac is the share of available CPU the GC used since prev.
func (g gcCPU) frac(prev gcCPU) float64 {
	if d := g.total - prev.total; d > 0 {
		return (g.gc - prev.gc) / d
	}
	return 0
}
