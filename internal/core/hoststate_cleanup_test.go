//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"time"

	"smvx/internal/sim/machine"
)

// TestDroppedMonitorIsCollectable: once its regions have ended, a dropped
// monitor is garbage: neither the parked host goroutines its followers ran
// on nor its watchdog timer keeps it. A monitor sits in reference cycles
// (its slots point back at it), so a finalizer would never run; a cleanup
// does.
func TestDroppedMonitorIsCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		env, mon, _ := policyApp(t, WithVariants(3))
		env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
			th.Libc("gettimeofday", uint64(th.Global("g_buf")), 0)
			th.Libc("close", 0)
			return 0
		})
		if completed, err := runRegions(t, env, mon, "protected_func", 5); err != nil || completed != 5 {
			t.Fatalf("completed %d/5, err=%v", completed, err)
		}
		runtime.AddCleanup(mon, func(done chan struct{}) { close(done) }, collected)
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("the dropped monitor is still reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
