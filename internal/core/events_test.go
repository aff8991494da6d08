package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"smvx/internal/obs"
	"smvx/internal/sim/machine"
)

// kindTally counts every recorded event by kind, and the trampoline
// events by libc call, as a recorder tap.
type kindTally struct {
	mu          sync.Mutex
	kinds       [256]uint64
	trampolines map[string]uint64
}

func (k *kindTally) TapEvent(e obs.Event) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.kinds[e.Kind]++
	if e.Kind == obs.EvTrampoline {
		k.trampolines[e.Name]++
	}
}

// snapshot copies the tallies.
func (k *kindTally) snapshot() ([256]uint64, map[string]uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	t := make(map[string]uint64, len(k.trampolines))
	for name, n := range k.trampolines {
		t[name] = n
	}
	return k.kinds, t
}

// TestInterceptionEventBudget pins what one round of syncClassRound's four
// calls records: one trampoline event per call and variant that enters
// the trampoline, none for a call syscall granularity sends straight to
// libc, no record of the retired per-pass and per-span kinds, and a fixed
// event total per round. Regions with extra rounds are counted against
// the same regions without them, so the per-region events cancel out. A
// change that records more per call has to change this test.
func TestInterceptionEventBudget(t *testing.T) {
	const base, extra = 2, 8
	calls := []string{"gettimeofday", "strlen", "time", "shutdown"}
	cases := []struct {
		name    string
		protect bool
		opts    []Option
		// variants is how many threads make each call; skip is the call
		// syscall granularity sends straight to libc.
		variants uint64
		skip     string
		// perRound is the pinned event total of one round.
		perRound uint64
	}{
		{"strict", true, nil, 2, "", 41},
		{"pipelined-n3", true, []Option{WithLockstepMode(LockstepPipelined), WithVariants(3)}, 3, "", 63},
		{"unprotected", false, nil, 1, "", 15},
		{"syscall-strict", true, []Option{WithSyscallGranularity()}, 2, "strlen", 37},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env, mon := loopApp(t, syncClassRound, nil, nil, c.opts...)
			tally := &kindTally{trampolines: map[string]uint64{}}
			env.Obs.SetTap(tally)
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
			var without, with [256]uint64
			var tWithout, tWith map[string]uint64
			if err := th.Run(func(tt *machine.Thread) {
				runLoop(t, tt, region, base) // warm up
				before, tBefore := tally.snapshot()
				runLoop(t, tt, region, base)
				mid, tMid := tally.snapshot()
				runLoop(t, tt, region, base+extra)
				after, tAfter := tally.snapshot()
				for k := range before {
					without[k], with[k] = mid[k]-before[k], after[k]-mid[k]
				}
				tWithout, tWith = countsSince(tMid, tBefore), countsSince(tAfter, tMid)
			}); err != nil {
				t.Fatal(err)
			}
			if len(mon.Alarms()) != 0 {
				t.Fatalf("alarms: %v", mon.Alarms())
			}
			var total uint64
			for k := range with {
				d := with[k] - without[k]
				if d%extra != 0 {
					t.Errorf("%s: %d events in %d extra rounds, not a whole number per round", obs.EventKind(k), d, extra)
				}
				total += d
			}
			for _, retired := range []obs.EventKind{obs.EvPKRUWrite, obs.EvStackPivot, obs.EvSpanBegin, obs.EvSpanEnd} {
				if with[retired] != 0 || without[retired] != 0 {
					t.Errorf("recorded %d %s events", with[retired]+without[retired], retired)
				}
			}
			for _, call := range calls {
				want := c.variants
				if call == c.skip {
					want = 0
				}
				if got := (tWith[call] - tWithout[call]) / extra; got != want {
					t.Errorf("%d trampoline events per %s, want %d", got, call, want)
				}
			}
			if got := total / extra; got != c.perRound {
				var kinds []string
				for k := range with {
					if d := with[k] - without[k]; d != 0 {
						kinds = append(kinds, fmt.Sprintf("%s %d", obs.EventKind(k), d/extra))
					}
				}
				t.Errorf("%d events per round (%s), want %d", got, strings.Join(kinds, ", "), c.perRound)
			}
		})
	}
}

// countsSince is a's counts less the earlier b's.
func countsSince(a, b map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(a))
	for name, n := range a {
		out[name] = n - b[name]
	}
	return out
}
