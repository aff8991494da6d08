package machine

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"smvx/internal/sim/mem"
	"smvx/internal/sim/mpk"
)

// Sinks keep the compiler from discarding the benchmarked loads.
var (
	sinkByte   byte
	sinkString string
)

// windowBase is where the access benchmarks map each thread's private data
// window, well clear of the rig's image and thread stacks.
const windowBase mem.Addr = 0x10_0000_0000

// mapWindow maps window k (one page) and fills its first 64 bytes with a
// NUL-free string.
func mapWindow(tb testing.TB, r *testRig, k int) mem.Addr {
	tb.Helper()
	base := windowBase + mem.Addr(k)*0x10_0000
	if _, err := r.as.Map(mem.Region{Name: "window", Base: base, Size: mem.PageSize, Perm: mem.PermRW}); err != nil {
		tb.Fatal(err)
	}
	if err := r.as.WriteAt(base, bytes.Repeat([]byte{'x'}, 64)); err != nil {
		tb.Fatal(err)
	}
	return base
}

func newTestThread(tb testing.TB, r *testRig, name string) *Thread {
	tb.Helper()
	th, err := r.m.NewThread(name, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return th
}

// BenchmarkLoad8 is one thread's one-byte load: the unit of every string
// scan the simulated applications do.
func BenchmarkLoad8(b *testing.B) {
	r := newRig(b)
	w := mapWindow(b, r, 0)
	th := newTestThread(b, r, "t")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkByte = th.Load8(w + mem.Addr(i&63))
	}
}

// BenchmarkCString reads a 64-byte string: one page, one lock section.
func BenchmarkCString(b *testing.B) {
	r := newRig(b)
	w := mapWindow(b, r, 0)
	th := newTestThread(b, r, "t")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString = th.CString(w, 64)
	}
	if len(sinkString) != 64 {
		b.Fatalf("CString read %d bytes, want 64", len(sinkString))
	}
}

// BenchmarkLoad8TwoThreads runs BenchmarkLoad8 on two threads at once, each
// on its own window: the leader/follower shape. One op is one load on each
// thread, so ns/op above the single-thread figure is what the two threads
// cost each other through shared state.
func BenchmarkLoad8TwoThreads(b *testing.B) {
	r := newRig(b)
	ths := [2]*Thread{newTestThread(b, r, "leader"), newTestThread(b, r, "follower")}
	wins := [2]mem.Addr{mapWindow(b, r, 0), mapWindow(b, r, 1)}
	var sums [2]byte
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for k := range ths {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var sum byte
			for i := 0; i < b.N; i++ {
				sum += ths[k].Load8(wins[k] + mem.Addr(i&63))
			}
			sums[k] = sum
		}(k)
	}
	wg.Wait()
	sinkByte = sums[0] + sums[1]
}

// TestTLBConcurrentRemap: two threads load and store on disjoint windows
// while a third goroutine maps, fills and unmaps a spare region and
// flips a window's protection key, bumping the address-space generation
// under the threads' TLBs. Every load must return the thread's own last
// store, and every C-string read the window's string. Run it under -race.
func TestTLBConcurrentRemap(t *testing.T) {
	r := newRig(t)
	ths := [2]*Thread{newTestThread(t, r, "leader"), newTestThread(t, r, "follower")}
	wins := [2]mem.Addr{mapWindow(t, r, 0), mapWindow(t, r, 1)}
	const rounds = 2000
	spare := windowBase + 8*0x10_0000

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.as.Map(mem.Region{Name: "spare", Base: spare, Size: 2 * mem.PageSize, Perm: mem.PermRW}); err != nil {
				t.Error(err)
				return
			}
			if err := r.as.WriteAt(spare+mem.PageSize-4, []byte("straddle")); err != nil {
				t.Error(err)
				return
			}
			if err := r.as.SetRegionKey(wins[0], mpk.Key(n%2)); err != nil {
				t.Error(err)
				return
			}
			if err := r.as.Unmap(spare); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for k := range ths {
		wg.Add(1)
		go func(th *Thread, w mem.Addr) {
			defer wg.Done()
			err := th.Run(func(th *Thread) {
				for i := uint64(0); i < rounds; i++ {
					a := w + 512 + mem.Addr(i%64)*8
					th.Store64(a, i)
					if got := th.Load64(a); got != i {
						t.Errorf("%s: load at %s = %d, want %d", th.Name(), a, got, i)
						return
					}
					if got := th.Load8(w + mem.Addr(i%64)); got != 'x' {
						t.Errorf("%s: string byte %d = %q, want 'x'", th.Name(), i%64, got)
						return
					}
					if got := th.CString(w, mem.PageSize); got != strings.Repeat("x", 64) {
						t.Errorf("%s: CString = %q, want the window's 64 x's", th.Name(), got)
						return
					}
				}
			})
			if err != nil {
				t.Errorf("%s: %v", th.Name(), err)
			}
		}(ths[k], wins[k])
	}
	wg.Wait()
	close(stop)
	<-stopped
}

// argSum is a libc dispatcher that keeps nothing: it returns the sum of the
// arguments it is handed.
type argSum struct{}

func (argSum) Call(_ *Thread, _ int, _ string, args []uint64) uint64 {
	var sum uint64
	for _, a := range args {
		sum += a
	}
	return sum
}

var sinkRet uint64

// BenchmarkLibcCall is one unprotected libc call through Thread.Libc: PLT
// resolution, the call charge and direct dispatch. The arguments reach the
// dispatcher in the thread's argument registers, so the call allocates
// nothing.
func BenchmarkLibcCall(b *testing.B) {
	r := newRig(b)
	r.m.libc = argSum{}
	th := newTestThread(b, r, "t")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRet = th.Libc("write", 1, uint64(i), 5)
	}
}
