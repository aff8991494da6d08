package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
)

// goroutineID names the calling goroutine, from the header of its stack
// trace ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// currentSlots copies the active session's slots.
func currentSlots(mo *Monitor) []*followerSlot {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return append([]*followerSlot(nil), mo.session.slots...)
}

// TestSeveredSlotIsNeverReused: region 1's follower hangs off-CPU past the
// deadline and is severed, and its orphan keeps its host goroutine. Region
// 2 restarts the slot with fresh slot state on another host goroutine and
// runs clean lockstep, and region 3 keeps region 2's slot. Released, the
// orphan winds down with ErrDetached: it raises no alarm and records
// nothing under a later follower's TID.
func TestSeveredSlotIsNeverReused(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	env, mon, rec := policyApp(t, WithPolicy(PolicyRestartFollower), WithRestartBackoff(100))
	var mu sync.Mutex
	var goroutines []string // each region's follower goroutine, in order
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		if th.Bias() != 0 {
			mu.Lock()
			goroutines = append(goroutines, goroutineID())
			first := len(goroutines) == 1
			mu.Unlock()
			th.Libc("gettimeofday", uint64(th.Global("g_buf")), 0)
			if first {
				<-release // charges no cycles: only the watchdog can catch it
			}
		} else {
			th.Libc("gettimeofday", uint64(th.Global("g_buf")), 0)
		}
		th.Libc("close", 0)
		return 0
	})
	th, err := env.MainThread()
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	const regions = 3
	var slots [regions]*followerSlot
	var tids, alarms [regions]int
	if err := th.Run(func(tt *machine.Thread) {
		for i := range slots {
			if err := mon.Start(tt, "protected_func"); err != nil {
				t.Fatalf("Start %d: %v", i, err)
			}
			slots[i] = currentSlots(mon)[0]
			tids[i] = slots[i].tid
			tt.Call("protected_func")
			if err := mon.End(tt); err != nil {
				t.Fatalf("End %d: %v", i, err)
			}
			alarms[i] = len(mon.Alarms())
		}
	}); err != nil {
		t.Fatal(err)
	}

	if alarms[0] != 1 || mon.Alarms()[0].Reason != AlarmRendezvousTimeout {
		t.Fatalf("region 1 alarms = %v, want one rendezvous timeout", mon.Alarms())
	}
	if alarms[2] != alarms[0] {
		t.Errorf("regions 2 and 3 raised %d alarms: %v", alarms[2]-alarms[0], mon.Alarms()[alarms[0]:])
	}
	reports := mon.Reports()
	if r := reports[1]; !r.FollowerRestarted || r.Diverged || r.Degraded || r.LibcCalls != 2 {
		t.Errorf("region 2 = %+v, want a restarted follower in clean lockstep", r)
	}
	if r := reports[2]; r.Diverged || r.Degraded || r.LibcCalls != 2 {
		t.Errorf("region 3 = %+v, want clean lockstep", r)
	}
	if slots[1] == slots[0] {
		t.Error("region 2 reused the severed slot")
	}
	if slots[2] != slots[1] {
		t.Error("region 3 rebuilt the slot region 2 left clean")
	}
	mu.Lock()
	if len(goroutines) != regions || goroutines[1] == goroutines[0] {
		t.Errorf("follower goroutines %v: region 2 must not run on the orphan's", goroutines)
	}
	mu.Unlock()

	before := rec.Total()
	releaseOnce.Do(func() { close(release) })
	if err := slots[0].thread.Wait(); !errors.Is(err, ErrDetached) {
		t.Errorf("orphan exited with %v, want ErrDetached", err)
	}
	if n := len(mon.Alarms()); n != alarms[2] {
		t.Errorf("the orphan raised %d alarms: %v", n-alarms[2], mon.Alarms()[alarms[2]:])
	}
	orphanEvents := 0
	for _, e := range rec.Events() {
		if e.Seq <= before {
			continue
		}
		switch e.TID {
		case tids[0]:
			orphanEvents++
		case tids[1], tids[2]:
			t.Errorf("after its release the orphan recorded %v under a later follower's TID %d", e, e.TID)
		}
	}
	if orphanEvents == 0 {
		t.Error("the released orphan never reached the trampoline")
	}
}

// TestFollowerHostStateStaysBounded runs 200 clean N=3 regions and two
// more in which follower 2 hangs and is severed. Clean regions keep their
// slots, so only a severed region's successor builds new ones; and once
// the orphans are released, the goroutine count is back within the host
// pool's bound of where it started.
func TestFollowerHostStateStaysBounded(t *testing.T) {
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	var releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	env, mon, _ := policyApp(t, WithVariants(3), WithPolicy(PolicyRestartFollower),
		WithRestartBudget(2), WithRestartBackoff(100))
	var hung atomic.Int64
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		th.Libc("gettimeofday", uint64(th.Global("g_buf")), 0)
		if th.Variant() == 2 && argAt(args, 0) == 1 {
			hung.Add(1)
			<-release
		}
		th.Libc("close", 0)
		return 0
	})
	th, err := env.MainThread()
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	const regions = 202 // regions 67 and 134 hang, the other 200 run clean
	seen := make(map[*followerSlot]bool)
	var orphans []*kernel.Thread
	if err := th.Run(func(tt *machine.Thread) {
		for i := 0; i < regions; i++ {
			hang := uint64(0)
			if i == 67 || i == 134 {
				hang = 1
			}
			if err := mon.Start(tt, "protected_func", hang); err != nil {
				t.Fatalf("Start %d: %v", i, err)
			}
			slots := currentSlots(mon)
			for _, sl := range slots {
				seen[sl] = true
			}
			tt.Call("protected_func", hang)
			if err := mon.End(tt); err != nil {
				t.Fatalf("End %d: %v", i, err)
			}
			if hang == 1 {
				orphans = append(orphans, slots[1].thread)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n := hung.Load(); n != 2 {
		t.Fatalf("%d followers hung, want 2", n)
	}
	if n := len(mon.Alarms()); n != 2 {
		t.Errorf("%d alarms, want one timeout per severed region: %v", n, mon.Alarms())
	}
	// The first region builds two slots and each severed region's
	// successor two more.
	if len(seen) != 6 {
		t.Errorf("%d regions used %d distinct slots, want 6", regions, len(seen))
	}

	releaseOnce.Do(func() { close(release) })
	for _, o := range orphans {
		if err := o.Wait(); !errors.Is(err, ErrDetached) {
			t.Errorf("orphan exited with %v, want ErrDetached", err)
		}
	}
	limit := base + kernel.HostPoolSize
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > limit && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > limit {
		t.Errorf("%d goroutines after %d regions, started with %d (pool bound %d)", n, regions, base, kernel.HostPoolSize)
	}
}
