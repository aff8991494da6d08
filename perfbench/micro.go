package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/obs"
	"smvx/internal/obs/blackbox"
	"smvx/internal/obs/incident"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/mem"
)

// micro is a layer microbenchmark: a public function the outside seams
// of the end-to-end run cannot split, timed directly. moves and works tag
// it like a per-layer metric.
type micro struct {
	name, moves, works string
	run                func(b *testing.B, dir string)
}

var micros = []micro{
	{"micro.mem.snapshot", "host_rps", "nginx-rollback-attack -> the three clean workloads", benchSnapshot},
	{"micro.mem.restore", "host_rps", "nginx-rollback-attack -> the three clean workloads", benchRestore},
	{"micro.core.vote3", "host_rps", "nginx-pipelined-n3 -> nginx-strict, nginx-native", func(b *testing.B, _ string) { benchVote(b, 3) }},
	{"micro.core.vote5", "host_rps", "no workload runs N=5 yet", func(b *testing.B, _ string) { benchVote(b, 5) }},
	{"micro.obs.record", "host_rps", "all four workloads", benchRecord},
	{"micro.obs.record_sink", "host_rps, host_allocs_per_req", "nginx-rollback-attack -> the other three", benchRecordSink},
	{"micro.obs.record_tap", "host_rps, host_allocs_per_req", "nginx-rollback-attack -> the other three", benchRecordTap},
	{"micro.blackbox.sink_event", "host_rps, host_allocs_per_req", "nginx-rollback-attack -> the other three", benchSinkEvent},
}

// Results the benchmark loops store so the compiler keeps the calls.
var (
	snapSink *mem.Snapshot
	voteSink core.VoteResult
)

// bootedNginx assembles an nginx process the way the workloads boot it.
func bootedNginx(b *testing.B) *boot.Env {
	srv := nginx.NewServer(nginx.Config{Port: port})
	env, err := boot.NewEnv(kernel.New(clock.DefaultCosts(), 42), srv.Program(), boot.WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// benchSnapshot captures a copy-on-write checkpoint of a booted nginx
// address space.
func benchSnapshot(b *testing.B, _ string) {
	as := bootedNginx(b).AS
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapSink = as.Snapshot()
	}
}

// restorePages is how many resident pages one restore op dirties first.
const restorePages = 16

// benchRestore dirties restorePages heap pages of a booted nginx address
// space, which saves their pre-images, and restores the checkpoint.
func benchRestore(b *testing.B, _ string) {
	env := bootedNginx(b)
	as := env.AS
	if err := as.Touch(env.HeapBase, restorePages*mem.PageSize); err != nil {
		b.Fatal(err)
	}
	snap := as.Snapshot()
	one := []byte{1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < restorePages; p++ {
			if err := as.WriteAt(env.HeapBase+mem.Addr(p)*mem.PageSize, one); err != nil {
				b.Fatal(err)
			}
		}
		if err := as.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// benchVote votes on n agreeing ballots of one recv call; the buffer
// pointer differs per variant window, as in a real rendezvous.
func benchVote(b *testing.B, n int) {
	ballots := make([]core.Ballot, n)
	for i := range ballots {
		ballots[i] = core.Ballot{
			Variant: core.VariantID(i),
			Name:    "recv",
			Args:    []uint64{7, uint64(0x1000_0000 + int64(i)*core.FollowerDelta), 1023},
			Valid:   true,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		voteSink = core.Vote(ballots)
	}
}

func benchRecord(b *testing.B, _ string) {
	recordLoop(b, obs.NewRecorder(obs.Config{}))
}

func benchRecordSink(b *testing.B, dir string) {
	rec := obs.NewRecorder(obs.Config{})
	rec.SetSink(openWAL(b, dir))
	recordLoop(b, rec)
}

func benchRecordTap(b *testing.B, _ string) {
	rec := obs.NewRecorder(obs.Config{})
	rec.SetTap(incident.New(0))
	recordLoop(b, rec)
}

func recordLoop(b *testing.B, rec *obs.Recorder) {
	rec.SetClock(clock.NewCounter())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(obs.EvLibcEnter, obs.VariantLeader, 1, "recv", 7, 1023, 0)
	}
}

func benchSinkEvent(b *testing.B, dir string) {
	w := openWAL(b, dir)
	e := obs.Event{Kind: obs.EvLibcEnter, Variant: obs.VariantLeader, TID: 1, Name: "recv", Arg0: 7, Arg1: 1023}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Seq++
		w.SinkEvent(e)
	}
}

// openWAL opens a black-box writer in a fresh directory under dir that is
// removed with the benchmark. Retention is capped so a long benchmark
// keeps little on disk, and Flush skips fsync: a record append never
// syncs, and the workloads measure flushes on their own.
func openWAL(b *testing.B, dir string) *blackbox.Writer {
	wal, err := os.MkdirTemp(dir, "wal-micro-")
	if err != nil {
		b.Fatal(err)
	}
	w, err := blackbox.Open(filepath.Clean(wal), blackbox.Meta{Capacity: obs.DefaultCapacity}, blackbox.Options{MaxSegments: 2, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		w.Close()
		os.RemoveAll(wal)
	})
	return w
}

// runMicros times every microbenchmark, each for about benchtime. The
// testing package reads the duration from its -test.benchtime flag, which
// is restored afterwards so a test binary's own benchmarks keep theirs.
func runMicros(dir string, benchtime time.Duration) (map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	testing.Init()
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return nil, err
	}
	defer flag.Set("test.benchtime", prev)
	v := make(map[string]float64)
	for _, mb := range micros {
		res := testing.Benchmark(func(b *testing.B) { mb.run(b, dir) })
		v[mb.name+".ns_per_op"] = float64(res.T.Nanoseconds()) / float64(max(res.N, 1))
		v[mb.name+".allocs_per_op"] = float64(res.MemAllocs) / float64(max(res.N, 1))
	}
	return v, nil
}
