// Package kernel simulates the operating-system services the paper's target
// applications depend on: an in-memory filesystem, loopback TCP sockets,
// epoll, virtual time, a seeded /dev/urandom, and thread/process creation
// with the clone()/fork() cost asymmetry that Table 2 of the paper reports.
//
// The kernel works on plain Go byte slices; the libc layer (internal/libc)
// is responsible for copying between simulated memory and kernel buffers,
// exactly where the user/kernel boundary sits on a real system. Every
// syscall entry charges two context switches plus kernel work to the cycle
// counter and counts toward the process's syscall total, which the
// evaluation uses for the libc:syscall ratio of Figure 7; an attached
// recorder sees each entry, by name, as an EvSyscall event.
package kernel

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"smvx/internal/obs"
	"smvx/internal/sim/clock"
)

// Errno is a simulated POSIX error number.
type Errno int

// Errno values used by the simulated syscalls.
const (
	OK Errno = iota
	EPERM
	ENOENT
	EBADF
	EAGAIN
	ENOMEM
	EACCES
	EFAULT
	EEXIST
	ENOTDIR
	EISDIR
	EINVAL
	EMFILE
	EPIPE
	ECONNRESET
	ENOTSOCK
	EADDRINUSE
	ECONNREFUSED
	ENOTCONN
	EINTR
)

var errnoNames = map[Errno]string{
	OK: "OK", EPERM: "EPERM", ENOENT: "ENOENT", EBADF: "EBADF",
	EAGAIN: "EAGAIN", ENOMEM: "ENOMEM", EACCES: "EACCES", EFAULT: "EFAULT",
	EEXIST: "EEXIST", ENOTDIR: "ENOTDIR", EISDIR: "EISDIR", EINVAL: "EINVAL",
	EMFILE: "EMFILE", EPIPE: "EPIPE", ECONNRESET: "ECONNRESET",
	ENOTSOCK: "ENOTSOCK", EADDRINUSE: "EADDRINUSE",
	ECONNREFUSED: "ECONNREFUSED", ENOTCONN: "ENOTCONN", EINTR: "EINTR",
}

// String names the errno.
func (e Errno) String() string {
	if s, ok := errnoNames[e]; ok {
		return s
	}
	return fmt.Sprintf("errno(%d)", int(e))
}

// Error implements the error interface so an Errno can travel as an error.
func (e Errno) Error() string { return e.String() }

// Kernel is one simulated operating-system instance.
type Kernel struct {
	mu sync.Mutex

	costs clock.CostTable

	fs  *FS
	rng *rand.Rand

	nextPID int
	ports   map[uint16]*listener
	// portsCond is broadcast on Bind and listener close, so ConnectWait can
	// block for a port instead of spinning. portsClosed remembers ports a
	// listener once served and then released: connecting there refuses
	// immediately (the server is gone — a real RST), while a never-bound
	// port blocks (the server is still starting).
	portsCond   *sync.Cond
	portsClosed map[uint16]bool
	baseTime    time.Time
	processes   map[int]*Process
}

// New creates a kernel under the given cost table, with urandom seeded
// deterministically. Cycle costs are charged to each calling process's own
// counter, so client and server workloads never pollute each other's
// measurements.
func New(costs clock.CostTable, seed int64) *Kernel {
	k := &Kernel{
		costs:   costs,
		fs:      newFS(),
		rng:     rand.New(rand.NewSource(seed)),
		nextPID: 100,
		// Simulated epoch: a fixed instant so localtime/gettimeofday are
		// deterministic.
		baseTime:    time.Date(2024, 12, 2, 9, 0, 0, 0, time.UTC),
		ports:       make(map[uint16]*listener),
		portsClosed: make(map[uint16]bool),
		processes:   make(map[int]*Process),
	}
	k.portsCond = sync.NewCond(&k.mu)
	return k
}

// Costs returns the kernel's cycle cost table.
func (k *Kernel) Costs() clock.CostTable { return k.costs }

// FS returns the kernel's filesystem, for test and workload setup.
func (k *Kernel) FS() *FS { return k.fs }

// enter accounts for one syscall entry by this process: two user/kernel
// context switches plus base kernel work, charged to the process's counter,
// and one more in the process's total, which feeds the libc:syscall ratio
// of Figure 7.
func (p *Process) enter(name string) {
	if p.counter != nil {
		p.counter.Charge(p.k.costs.SyscallCost())
	}
	if p.wall != nil {
		p.wall.Charge(p.k.costs.SyscallCost())
	}
	p.syscallTotal.Add(1)
	if p.ticker != nil {
		p.ticker.TickSyscall(p.pid, name, p.k.costs.SyscallCost())
	}
	p.rec.Record(obs.EvSyscall, obs.VariantNone, p.pid, name, uint64(p.pid), 0, 0)
	p.syscallCell.Inc()
}

// SyscallTotal returns the total number of syscalls this process issued.
func (p *Process) SyscallTotal() uint64 { return p.syscallTotal.Load() }

// fdKind discriminates the object behind a file descriptor.
type fdKind int

const (
	fdFile fdKind = iota + 1
	fdListener
	fdConn
	fdEpoll
	fdURandom
	fdNull
)

// FD is one open file description.
type FD struct {
	kind     fdKind
	file     *openFile
	listener *listener
	conn     *Conn
	epoll    *Epoll

	// sockopts holds setsockopt state, returned verbatim by getsockopt.
	sockopts map[int64]int64
}

// Process is a simulated process: a fd table bound to a kernel. The
// application's address space lives in internal/sim/mem and is attached by
// the machine layer, not the kernel — the kernel only sees byte slices.
type Process struct {
	k       *Kernel
	pid     int
	counter *clock.Counter
	wall    *clock.Counter
	rec     *obs.Recorder
	ticker  CycleTicker

	// syscallCell is the recorder's syscall.total counter, resolved once
	// by SetRecorder (nil without a recorder).
	syscallCell *obs.CounterCell

	mu     sync.Mutex
	fds    map[int]*FD
	nextFD int

	syscallTotal atomic.Uint64
}

// SetWallCounter attaches the elapsed-time counter; syscall costs are
// charged to both counters (syscalls execute on the leader's critical
// path — follower syscalls are emulated and never reach the kernel).
func (p *Process) SetWallCounter(c *clock.Counter) { p.wall = c }

// SetRecorder attaches a flight recorder; every syscall entry then emits an
// EvSyscall event and counts in syscall.total. Must be called before
// threads run; nil (the default) keeps the syscall path free of
// observability work.
func (p *Process) SetRecorder(r *obs.Recorder) {
	p.rec = r
	p.syscallCell = r.Metrics().CounterCell("syscall.total")
}

// CycleTicker receives the virtual cycles each syscall charges. Kernel
// work bypasses machine.ChargeThread (the process charges its counter
// directly), so the sampling profiler needs this separate tick source to
// attribute kernel time. Same convention as SetRecorder: set before
// threads run.
type CycleTicker interface {
	TickSyscall(pid int, name string, c clock.Cycles)
}

// SetCycleTicker attaches (nil detaches) the syscall cycle ticker.
func (p *Process) SetCycleTicker(t CycleTicker) { p.ticker = t }

// NewProcess registers a fresh process with stdin/stdout/stderr reserved,
// charging its syscall cycles to counter (which may be nil).
func (k *Kernel) NewProcess(counter *clock.Counter) *Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	p := &Process{
		k:       k,
		pid:     k.nextPID,
		counter: counter,
		fds:     make(map[int]*FD),
		nextFD:  3, // 0,1,2 reserved
	}
	k.nextPID++
	k.processes[p.pid] = p
	return p
}

// PID returns the process id.
func (p *Process) PID() int { return p.pid }

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.k }

// Counter returns the process's cycle counter (may be nil).
func (p *Process) Counter() *clock.Counter { return p.counter }

// install places fd into the table and returns its number.
func (p *Process) install(f *FD) (int, Errno) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.fds) >= 1024 {
		return -1, EMFILE
	}
	n := p.nextFD
	p.nextFD++
	p.fds[n] = f
	return n, OK
}

// lookup resolves a descriptor number.
func (p *Process) lookup(fd int) (*FD, Errno) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.fds[fd]
	if !ok {
		return nil, EBADF
	}
	return f, OK
}

// Close releases the descriptor, closing the underlying object when it is
// the last reference held by this table.
func (p *Process) Close(fd int) Errno {
	p.enter("close")
	p.mu.Lock()
	f, ok := p.fds[fd]
	if ok {
		delete(p.fds, fd)
	}
	p.mu.Unlock()
	if !ok {
		return EBADF
	}
	switch f.kind {
	case fdConn:
		if f.conn != nil { // an unconnected socket has no connection yet
			f.conn.close()
		}
	case fdListener:
		f.listener.close()
		p.k.mu.Lock()
		if p.k.ports[f.listener.port] == f.listener {
			delete(p.k.ports, f.listener.port)
		}
		p.k.portsClosed[f.listener.port] = true
		p.k.portsCond.Broadcast() // waiters must see the refusal, not time out
		p.k.mu.Unlock()
	case fdEpoll:
		f.epoll.close()
	}
	return OK
}

// IsSocket reports whether fd refers to a connection or listener — the
// check libc uses to decide whether received bytes are network-tainted
// (the taint source of Section 3.2).
func (p *Process) IsSocket(fd int) bool {
	f, e := p.lookup(fd)
	return e == OK && (f.kind == fdConn || f.kind == fdListener)
}

// OpenFDCount returns the number of open descriptors (tests use it to catch
// descriptor leaks across variant runs).
func (p *Process) OpenFDCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.fds)
}
