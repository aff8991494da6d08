package kernel

import (
	"sync"

	"smvx/internal/sim/clock"
)

// Thread is the handle for a simulated thread created with CloneThread.
type Thread struct {
	tid  int
	done chan struct{}

	mu  sync.Mutex
	err error
}

// TID returns the thread id.
func (t *Thread) TID() int { return t.tid }

// Wait blocks until the thread function returns and yields its error. It is
// the kernel half of mvx_end()'s wait() on the follower (Section 3.2).
func (t *Thread) Wait() error {
	<-t.done
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Done returns a channel closed when the thread function has returned, for
// callers that must bound their wait with a timeout (the monitor's
// rendezvous deadline watchdog) instead of blocking unconditionally.
func (t *Thread) Done() <-chan struct{} { return t.done }

// Err returns the thread function's error. It is only meaningful after Done
// is closed.
func (t *Thread) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

var tidCounter struct {
	mu   sync.Mutex
	next int
}

// CloneThread starts fn on a new simulated thread sharing the caller's
// address space, charging the clone() cost from Table 2 (~9.5us for an
// empty function — threads share the address space, so no page-table
// duplication is needed). The returned Thread must be Wait()ed. The
// simulated thread runs on a parked host goroutine when one is idle (see
// hostPool), so its host stack is already grown; that changes no
// simulated quantity.
func (p *Process) CloneThread(fn func() error) *Thread {
	p.enter("clone")
	if p.counter != nil {
		p.counter.Charge(p.k.costs.ThreadClone)
	}
	if p.wall != nil {
		p.wall.Charge(p.k.costs.ThreadClone)
	}
	tidCounter.mu.Lock()
	tidCounter.next++
	tid := 1000 + tidCounter.next
	tidCounter.mu.Unlock()

	t := &Thread{tid: tid, done: make(chan struct{})}
	j := hostJob{t: t, fn: fn}
	select {
	case w := <-hostPool:
		w <- j
	default:
		go runHost(j)
	}
	return t
}

// HostPoolSize bounds how many idle host goroutines CloneThread keeps
// parked for the next simulated thread. A goroutine that finds the pool
// full when its thread exits ends instead, so the pool holds at most this
// many goroutines beyond the simulated threads that are running.
const HostPoolSize = 16

// hostJob is one simulated thread's body and handle.
type hostJob struct {
	t  *Thread
	fn func() error
}

// hostPool holds the job lanes of the parked host goroutines, one lane
// each. A lane has room for one job, so CloneThread's hand-off never
// waits for the goroutine to be scheduled. The pool is shared by every
// process: a parked goroutine holds nothing of the thread it last ran.
var hostPool = make(chan chan hostJob, HostPoolSize)

// runHost runs j and then, while the pool has room, parks for the next
// job instead of ending.
func runHost(j hostJob) {
	var lane chan hostJob
	for {
		j.run()
		j = hostJob{} // a parked goroutine must not keep its last thread alive
		if lane == nil {
			lane = make(chan hostJob, 1)
		}
		select {
		case hostPool <- lane:
		default:
			return
		}
		j = <-lane
	}
}

// run executes the thread body and publishes its exit.
func (j hostJob) run() {
	defer close(j.t.done)
	err := j.fn()
	j.t.mu.Lock()
	j.t.err = err
	j.t.mu.Unlock()
}

// WaitThread blocks until the thread exits, counting the wait() syscall
// mvx_end() issues to pause for the follower (Section 3.2).
func (p *Process) WaitThread(t *Thread) error {
	p.enter("wait")
	return t.Wait()
}

// WaitThreadCh counts the same wait() syscall as WaitThread but returns the
// thread's completion channel instead of blocking, so the caller can bound
// the wait with its own deadline (the monitor's rendezvous watchdog).
func (p *Process) WaitThreadCh(t *Thread) <-chan struct{} {
	p.enter("wait")
	return t.done
}

// Fork charges the cost of fork(2) for a process with residentPages mapped
// pages: base page-table setup plus per-page copy-on-write bookkeeping.
// Table 2 contrasts fork of an empty main (~640us) with fork during
// lighttpd initialization (~697us), the difference being resident pages.
// The simulation models fork as a cost (the MVX systems under study use
// clone for variant creation; fork appears only as a baseline).
func (p *Process) Fork(residentPages int) int {
	p.enter("fork")
	pages := clock.Cycles(0)
	if residentPages > 0 {
		pages = clock.Cycles(residentPages)
	}
	cost := p.k.costs.ForkBase + p.k.costs.ForkPerPage*pages
	if p.counter != nil {
		p.counter.Charge(cost)
	}
	if p.wall != nil {
		p.wall.Charge(cost)
	}
	p.k.mu.Lock()
	pid := p.k.nextPID
	p.k.nextPID++
	p.k.mu.Unlock()
	return pid
}
