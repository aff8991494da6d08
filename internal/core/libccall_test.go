package core

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"smvx/internal/boot"
	"smvx/internal/obs"
	"smvx/internal/obs/replay"
	"smvx/internal/sim/machine"
)

// TestUnreturnedCallsAreRecorded: a trampoline pass that unwinds instead
// of returning still records its libc call, as it unwinds, marked
// unreturned. A follower detached at a strict rendezvous (leader-continue,
// an argument mismatch at close) and a leader whose region the rollback
// policy aborts at its next rendezvous (its follower faulted) each show
// the call in their variant's forensic tail and as the last, incomplete
// call of replay.Calls.
func TestUnreturnedCallsAreRecorded(t *testing.T) {
	cases := []struct {
		name   string
		policy DivergencePolicy
		body   machine.Body
		v      obs.Variant
		line   string // the call's forensic line, up to the trampoline pass
		arg0   uint64
	}{
		{"follower-detached", PolicyLeaderContinue, func(th *machine.Thread, _ []uint64) uint64 {
			fd := uint64(3)
			if th.Bias() != 0 {
				fd = 7 // the same call with another scalar argument
			}
			th.Libc("close", fd)
			return 0
		}, obs.VariantFollower, "libc-call    close(0x7, 0x0) unreturned pkru", 7},
		{"leader-aborted", PolicyRollback, func(th *machine.Thread, _ []uint64) uint64 {
			th.Libc("gettimeofday", uint64(th.Global("g_buf")), 0)
			if th.Bias() != 0 {
				th.Load64(0xdead_0000_0000) // the follower faults
			}
			th.Libc("close", 0) // the leader's rendezvous, which the abort preempts
			return 0
		}, obs.VariantLeader, "libc-call    close(0x0, 0x0) unreturned pkru", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := obs.NewRecorder(obs.Config{})
			env, _ := testApp(t, boot.WithRecorder(rec))
			env.Prog.MustDefine("protected_func", c.body)
			mon := New(env.Machine, env.LibC, WithSeed(11), WithRecorder(rec), WithPolicy(c.policy))
			th, err := env.MainThread()
			if err != nil {
				t.Fatal(err)
			}
			if err := mon.Init(th); err != nil {
				t.Fatal(err)
			}
			if err := th.Run(func(tt *machine.Thread) {
				_, err := mon.Invoke(tt, "protected_func")
				if c.policy == PolicyRollback && !errors.Is(err, machine.ErrRegionRolledBack) {
					t.Errorf("Invoke = %v, want the region rolled back", err)
				}
			}); err != nil {
				t.Fatalf("leader: %v", err)
			}
			if len(mon.Alarms()) == 0 {
				t.Fatal("no alarm raised")
			}

			reports := rec.ForensicReports()
			if len(reports) == 0 || !strings.Contains(reports[0], c.line) {
				t.Errorf("forensic report lacks %q:\n%s", c.line, strings.Join(reports, "\n"))
			}
			calls := replay.Calls(rec.Events(), c.v)
			if len(calls) == 0 {
				t.Fatalf("replay.Calls(%s) is empty", c.v)
			}
			last := calls[len(calls)-1]
			if last.Name != "close" || last.Arg0 != c.arg0 || last.Completed || last.Fn != "protected_func" {
				t.Errorf("%s's last call = %+v, want close(%d) in protected_func, not completed", c.v, last, c.arg0)
			}
			for _, call := range calls[:len(calls)-1] {
				if !call.Completed {
					t.Errorf("%s's earlier call %+v did not complete", c.v, call)
				}
			}
		})
	}
}

// TestSafeStacksFollowSlotOrder: mvx_start reserves each follower slot's
// safe stack in slot order, so whichever follower reaches the trampoline
// first, two seeded N=3 runs record the same libc-call stream for every
// variant (timestamps and durations aside, which the shared clock makes
// vary), and in every region slot 1's stack lies below slot 2's.
func TestSafeStacksFollowSlotOrder(t *testing.T) {
	const regions = 8
	run := func() [3][]obs.Event {
		env, mon := loopApp(t, syncClassRound, nil, nil, WithVariants(3))
		th, err := env.MainThread()
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Init(th); err != nil {
			t.Fatal(err)
		}
		if err := th.Run(func(tt *machine.Thread) {
			for i := 0; i < regions; i++ {
				runLoop(t, tt, mon, 2)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if len(mon.Alarms()) != 0 {
			t.Fatalf("alarms: %v", mon.Alarms())
		}
		var streams [3][]obs.Event
		for _, e := range env.Obs.Events() {
			if e.Kind == obs.EvLibcCall && e.Variant < 3 {
				e.Seq, e.VSeq, e.TS, e.Dur = 0, 0, 0, 0
				streams[e.Variant] = append(streams[e.Variant], e)
			}
		}
		return streams
	}
	a, b := run(), run()
	for v := range a {
		if len(a[v]) == 0 {
			t.Fatalf("%s recorded no libc call", obs.Variant(v))
		}
		if !reflect.DeepEqual(a[v], b[v]) {
			t.Errorf("%s's libc-call streams differ between two seeded runs:\n%v\n%v", obs.Variant(v), a[v], b[v])
		}
	}

	// Follower TIDs are allocated in slot order at each mvx_start, so the
	// i-th TID of each slot belongs to region i.
	stacks := func(events []obs.Event) []uint64 {
		top := map[int]uint64{}
		for _, e := range events {
			top[e.TID] = e.SafeSP
		}
		tids := make([]int, 0, len(top))
		for tid := range top {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		out := make([]uint64, len(tids))
		for i, tid := range tids {
			out[i] = top[tid]
		}
		return out
	}
	s1, s2 := stacks(a[1]), stacks(a[2])
	if len(s1) != regions || len(s2) != regions {
		t.Fatalf("followers ran on %d and %d threads, want %d each", len(s1), len(s2), regions)
	}
	for i := range s1 {
		if s1[i] == 0 || s1[i] >= s2[i] {
			t.Errorf("region %d: slot 1's safe stack at %#x, slot 2's at %#x", i, s1[i], s2[i])
		}
	}
}
