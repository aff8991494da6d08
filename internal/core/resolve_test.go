package core

import (
	"testing"

	"smvx/internal/obs"
	"smvx/internal/obs/blackbox"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/machine"
)

// TestLibcCallPathResolvesNoMetricName: once the recorder, the libc, the
// kernel and the monitor hold their metric cells, a simulated libc call
// looks no metric name up — unprotected, through a strict rendezvous
// (N=2), through a pipelined enqueue and drain (N=3) and at ReMon's
// syscall granularity — with the cost ledger and a WAL writer attached as
// well. Regions with extra rounds of syncClassRound are counted against
// the same regions without them, so the per-region lookups (variant
// creation, the region-exit metrics) cancel out.
func TestLibcCallPathResolvesNoMetricName(t *testing.T) {
	const base, extra = 2, 8
	cases := []struct {
		name    string
		protect bool
		opts    []Option
	}{
		{"strict", true, nil},
		{"pipelined-n3", true, []Option{WithLockstepMode(LockstepPipelined), WithVariants(3)}},
		{"syscall-strict", true, []Option{WithSyscallGranularity()}},
		{"unprotected", false, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			led := ledger.New()
			env, mon := loopApp(t, syncClassRound, nil, nil, append([]Option{WithLedger(led)}, c.opts...)...)
			led.SetRecorder(env.Obs)
			m := env.Obs.Metrics()
			w, err := blackbox.Open(t.TempDir(), blackbox.Meta{Capacity: obs.DefaultCapacity},
				blackbox.Options{Metrics: m, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			env.Obs.SetSink(w)
			th, err := env.MainThread()
			if err != nil {
				t.Fatal(err)
			}
			if err := mon.Init(th); err != nil {
				t.Fatal(err)
			}
			region := mon
			if !c.protect {
				region = nil // the calls still pass through the trampoline
			}
			var without, with uint64
			if err := th.Run(func(tt *machine.Thread) {
				runLoop(t, tt, region, base) // warm up
				before := m.Resolves()
				runLoop(t, tt, region, base)
				mid := m.Resolves()
				runLoop(t, tt, region, base+extra)
				without, with = mid-before, m.Resolves()-mid
			}); err != nil {
				t.Fatal(err)
			}
			if len(mon.Alarms()) != 0 {
				t.Fatalf("alarms: %v", mon.Alarms())
			}
			if with != without {
				t.Errorf("%d metric-name lookups in %d extra rounds of %d calls, want 0",
					with-without, extra, syncClassCalls)
			}
			if m.Histogram("libc.cycles.gettimeofday").Count == 0 || m.Counter("syscall.total") == 0 {
				t.Error("the calls observed nothing")
			}
		})
	}
}
