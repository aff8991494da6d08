package main

import (
	"math/rand"
	"slices"
	"time"
)

// The host's speed drifts: on a small machine shared with other work it
// shifts by a third for minutes at a time, far more than a change to the
// program should have to beat. The benchmark therefore measures the
// machine's speed next to every round, with a fixed piece of work that is
// not the program's, and reports host time scaled to referenceSpeed.

// referenceSpeed is the probe speed host times are scaled to, in probe
// iterations per second: about what the probe reads on the 2-core machine
// the benchmark was tuned on, so scaled values read close to raw ones.
const referenceSpeed = 24_000.0

// probeTime is how long one speed reading takes.
const probeTime = 25 * time.Millisecond

// speedProbe is the fixed work: a pointer chase through a shuffled ring,
// map updates, a sort, and a channel ping-pong between two goroutines, the
// kinds of work the simulator's host time is made of. It allocates nothing
// per iteration, so the program's heap and garbage collection do not move
// it; only the machine does.
type speedProbe struct {
	ring []int32
	m    map[int32]int32
	keys []int32
	buf  []int32
}

func newSpeedProbe() *speedProbe {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	p := &speedProbe{
		ring: make([]int32, n),
		m:    make(map[int32]int32, 256),
		keys: make([]int32, 256),
		buf:  make([]int32, 256),
	}
	perm := rng.Perm(n)
	for i := range perm {
		p.ring[perm[i]] = int32(perm[(i+1)%n])
	}
	for i := range p.keys {
		p.keys[i] = int32(rng.Intn(1 << 20))
		p.m[p.keys[i]] = 0
	}
	return p
}

// measure runs the probe for about d and returns iterations per second.
func (p *speedProbe) measure(d time.Duration) float64 {
	ping, pong := make(chan int32), make(chan int32)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	var at, sum int32
	n := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < 4096; i++ {
			at = p.ring[at]
		}
		for _, k := range p.keys {
			p.m[k] += at
		}
		copy(p.buf, p.keys)
		slices.Sort(p.buf)
		for i := int32(0); i < 8; i++ {
			ping <- i
			sum += <-pong
		}
		n++
	}
	close(ping)
	for range pong {
	}
	probeSink = sum + at
	return float64(n) / time.Since(start).Seconds()
}

// probeSink keeps the probe's results alive so the compiler keeps the work.
var probeSink int32
