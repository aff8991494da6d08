package kernel

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// goroutineID names the calling goroutine, from the header of its stack
// trace ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// TestCloneThreadReusesBoundedGoroutines: threads cloned one after another
// run on parked host goroutines instead of a fresh one each, many threads
// at once each get a goroutine, and once they have exited at most
// HostPoolSize goroutines stay parked. Each thread's error still reaches
// its own handle.
func TestCloneThreadReusesBoundedGoroutines(t *testing.T) {
	p := newTestProc(t)
	base := runtime.NumGoroutine()
	ids := make(map[string]bool)
	for i := 0; i < 100; i++ {
		var id string
		th := p.CloneThread(func() error { id = goroutineID(); return nil })
		if err := th.Wait(); err != nil {
			t.Fatalf("thread %d: %v", i, err)
		}
		ids[id] = true
	}
	if len(ids) > HostPoolSize+1 {
		t.Errorf("100 threads in sequence ran on %d goroutines, want at most %d", len(ids), HostPoolSize+1)
	}

	release := make(chan struct{})
	threads := make([]*Thread, 3*HostPoolSize)
	for i := range threads {
		want := OK
		if i%2 == 0 {
			want = EINVAL
		}
		threads[i] = p.CloneThread(func() error {
			<-release
			if want != OK {
				return want
			}
			return nil
		})
	}
	close(release)
	for i, th := range threads {
		err := th.Wait()
		if (i%2 == 0) != (err == EINVAL) || (i%2 != 0 && err != nil) {
			t.Errorf("thread %d exited with %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base+HostPoolSize && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+HostPoolSize {
		t.Errorf("%d goroutines after the threads exited, want at most %d", n, base+HostPoolSize)
	}
}
