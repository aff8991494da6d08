package core

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"smvx/internal/obs"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/machine"
)

// TestEndFlushesMirroredLedger: a region's mvx_end flushes its cost cells
// into the recorder, ahead of its EvRegionEnd, so right after one region's
// End — with no end-of-run flush — the recorded events fold to the live
// ledger. The pipelined rollback case adds the followers' drain charges and
// the entry checkpoint's snapshot charge. In the diverging case the
// follower's first shutdown has its how argument bit-flipped (what the
// chaos plan's arg-flip does), so End rolls the region back: its restore
// charge lands only after the rollback decision and must still be flushed
// before the region's EvRegionEnd.
func TestEndFlushesMirroredLedger(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		// flip bit-flips the follower's first shutdown argument, so the
		// region diverges and End rolls it back.
		flip bool
		// phases must be among the flushed cells.
		phases []string
	}{
		{"strict", nil, false, []string{"rendezvous", "compare", "emulate", "libc"}},
		{"rollback-pipelined", []Option{WithPolicy(PolicyRollback), WithLockstepMode(LockstepPipelined)},
			false, []string{"enqueue", "drain", "barrier", "snapshot"}},
		{"rollback-diverging", []Option{WithPolicy(PolicyRollback)},
			true, []string{"snapshot", "restore"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			live := ledger.New()
			env, mon := loopApp(t, syncClassRound, nil, nil, append([]Option{WithLedger(live)}, c.opts...)...)
			live.SetRecorder(env.Obs)
			if c.flip {
				var fired atomic.Bool
				env.Machine.SetLibcFaultHook(func(th *machine.Thread, name string, args []uint64) []uint64 {
					if th.Variant() == 0 || name != "shutdown" || !fired.CompareAndSwap(false, true) {
						return args
					}
					out := append([]uint64(nil), args...)
					out[1] ^= 1
					return out
				})
			}
			th, err := env.MainThread()
			if err != nil {
				t.Fatal(err)
			}
			if err := mon.Init(th); err != nil {
				t.Fatal(err)
			}
			if err := th.Run(func(tt *machine.Thread) {
				if err := mon.Start(tt, "protected_func", 4); err != nil {
					t.Fatalf("Start: %v", err)
				}
				tt.Call("protected_func", 4)
				if err := mon.End(tt); c.flip && !errors.Is(err, machine.ErrRegionRolledBack) || !c.flip && err != nil {
					t.Fatalf("End: %v", err)
				}
			}); err != nil {
				t.Fatal(err)
			}
			want := 0
			if c.flip {
				want = 1
			}
			if n := mon.Rollbacks(); n != want || len(mon.Alarms()) != want {
				t.Fatalf("%d rollbacks and alarms %v, want %d of each", n, mon.Alarms(), want)
			}
			if n := env.Obs.Evicted(); n != 0 {
				t.Fatalf("ring evicted %d events; the fold needs them all", n)
			}
			events := env.Obs.Events()
			rebuilt := ledger.New()
			cells, lastCell, end := 0, -1, -1
			flushed := map[string]bool{}
			for i, e := range events {
				rebuilt.TapEvent(e)
				switch e.Kind {
				case obs.EvLedgerCell:
					cells++
					lastCell = i
					flushed[e.Name[:strings.IndexByte(e.Name, '/')]] = true
				case obs.EvRegionEnd:
					end = i
				}
			}
			if cells == 0 || end < lastCell {
				t.Fatalf("%d cell events, the last at %d, the region's end at %d: want cells before the end",
					cells, lastCell, end)
			}
			if got, want := rebuilt.Snapshot(), live.Snapshot(); !reflect.DeepEqual(got.Regions, want.Regions) {
				t.Fatalf("recorded cells fold to\n%+v\nwant the live ledger\n%+v", got.Regions, want.Regions)
			}
			for _, p := range c.phases {
				if !flushed[p] {
					t.Errorf("no %s cell flushed before the region's end:\n%s", p, live.TableText())
				}
			}
		})
	}
}
