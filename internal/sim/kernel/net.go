package kernel

import (
	"sync"
	"time"
)

// listener is a bound, listening TCP socket on the loopback interface.
type listener struct {
	mu      sync.Mutex
	cond    *sync.Cond
	port    uint16
	pending []*Conn
	closed  bool

	watchers []*Epoll
}

func newListener(port uint16) *listener {
	l := &listener{port: port}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *listener) close() {
	l.mu.Lock()
	l.closed = true
	pending := l.pending
	l.pending = nil
	watchers := append([]*Epoll(nil), l.watchers...)
	l.mu.Unlock()
	for _, c := range pending {
		c.close()
	}
	l.cond.Broadcast()
	for _, ep := range watchers {
		ep.wake()
	}
}

func (l *listener) watch(ep *Epoll) {
	l.mu.Lock()
	l.watchers = append(l.watchers, ep)
	l.mu.Unlock()
}

func (l *listener) unwatch(ep *Epoll) {
	l.mu.Lock()
	for i, w := range l.watchers {
		if w == ep {
			l.watchers = append(l.watchers[:i], l.watchers[i+1:]...)
			break
		}
	}
	l.mu.Unlock()
}

// readable reports whether an accept would not block.
func (l *listener) readable() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending) > 0 || l.closed
}

// Conn is one end of an established loopback connection. Each end owns an
// inbound buffer; send appends to the peer's buffer.
type Conn struct {
	mu   sync.Mutex
	cond *sync.Cond

	// queue holds inbound data with send-record boundaries preserved: one
	// recv consumes from at most one record. Real TCP may coalesce, but
	// the deterministic boundary keeps multi-message exchanges (e.g. the
	// CVE-2013-2028 header-then-body sequence) reproducible.
	queue      [][]byte
	closed     bool // this end closed
	peerClosed bool // peer end closed or shut down

	peer     *Conn
	watchers []*Epoll
}

func newConnPair() (*Conn, *Conn) {
	a := &Conn{}
	b := &Conn{}
	a.cond = sync.NewCond(&a.mu)
	b.cond = sync.NewCond(&b.mu)
	a.peer, b.peer = b, a
	return a, b
}

func (c *Conn) watch(ep *Epoll) {
	c.mu.Lock()
	c.watchers = append(c.watchers, ep)
	c.mu.Unlock()
}

func (c *Conn) unwatch(ep *Epoll) {
	c.mu.Lock()
	for i, w := range c.watchers {
		if w == ep {
			c.watchers = append(c.watchers[:i], c.watchers[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

func (c *Conn) notify() {
	c.cond.Broadcast()
	c.mu.Lock()
	watchers := append([]*Epoll(nil), c.watchers...)
	c.mu.Unlock()
	for _, ep := range watchers {
		ep.wake()
	}
}

// readable reports whether a recv would not block.
func (c *Conn) readable() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue) > 0 || c.peerClosed || c.closed
}

// buffered returns the total inbound bytes (FIONREAD).
func (c *Conn) buffered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, rec := range c.queue {
		n += len(rec)
	}
	return n
}

// send appends buf to the peer's inbound buffer.
func (c *Conn) send(buf []byte, _ *Kernel) (int, Errno) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return -1, EBADF
	}
	if c.peerClosed {
		c.mu.Unlock()
		return -1, EPIPE
	}
	peer := c.peer
	c.mu.Unlock()

	peer.mu.Lock()
	if peer.closed {
		peer.mu.Unlock()
		return -1, ECONNRESET
	}
	peer.queue = append(peer.queue, append([]byte(nil), buf...))
	peer.mu.Unlock()
	peer.notify()
	return len(buf), OK
}

// recv blocks until data, peer shutdown, or local close, then copies up to
// len(buf) bytes. A recv on a drained, peer-closed connection returns 0
// (EOF), exactly the condition an nginx worker uses to tear a connection
// down.
func (c *Conn) recv(buf []byte, _ *Kernel) (int, Errno) {
	b, e := c.next(len(buf))
	if e != OK {
		return -1, e
	}
	return copy(buf, b), OK
}

// next is recv without the copy: it consumes up to n bytes of the head
// send record and returns them as a view of that record, empty at EOF.
// Records are the immutable copies send made, and the view's capacity
// ends at its length, so it cannot reach the bytes still queued.
func (c *Conn) next(n int) ([]byte, Errno) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) == 0 && !c.peerClosed && !c.closed {
		c.cond.Wait()
	}
	if c.closed {
		return nil, EBADF
	}
	if len(c.queue) == 0 {
		return nil, OK // EOF
	}
	head := c.queue[0]
	if n >= len(head) {
		n = len(head)
		c.queue = c.queue[1:]
	} else {
		c.queue[0] = head[n:]
	}
	return head[:n:n], OK
}

// shutdown marks the write side closed, delivering EOF to the peer.
func (c *Conn) shutdown() {
	c.mu.Lock()
	peer := c.peer
	c.mu.Unlock()
	if peer != nil {
		peer.mu.Lock()
		peer.peerClosed = true
		peer.mu.Unlock()
		peer.notify()
	}
}

func (c *Conn) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	peer := c.peer
	c.mu.Unlock()
	c.notify()
	if peer != nil {
		peer.mu.Lock()
		peer.peerClosed = true
		peer.mu.Unlock()
		peer.notify()
	}
}

// Socket creates a TCP socket descriptor.
func (p *Process) Socket() (int, Errno) {
	p.enter("socket")
	return p.install(&FD{kind: fdConn, sockopts: make(map[int64]int64)})
}

// Bind binds the socket to a loopback port.
func (p *Process) Bind(fd int, port uint16) Errno {
	p.enter("bind")
	f, e := p.lookup(fd)
	if e != OK {
		return e
	}
	if f.kind != fdConn && f.kind != fdListener {
		return ENOTSOCK
	}
	k := p.k
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, used := k.ports[port]; used {
		return EADDRINUSE
	}
	l := newListener(port)
	k.ports[port] = l
	delete(k.portsClosed, port) // rebinding revives the port
	f.kind = fdListener
	f.listener = l
	k.portsCond.Broadcast()
	return OK
}

// Listen marks the bound socket as accepting connections. The backlog is
// advisory in the simulation.
func (p *Process) Listen(fd int, backlog int) Errno {
	p.enter("listen")
	f, e := p.lookup(fd)
	if e != OK {
		return e
	}
	if f.kind != fdListener {
		return EINVAL
	}
	_ = backlog
	return OK
}

// Accept4 blocks for an incoming connection and returns its descriptor.
func (p *Process) Accept4(fd int) (int, Errno) {
	p.enter("accept4")
	f, e := p.lookup(fd)
	if e != OK {
		return -1, e
	}
	if f.kind != fdListener {
		return -1, EINVAL
	}
	l := f.listener
	l.mu.Lock()
	for len(l.pending) == 0 && !l.closed {
		l.cond.Wait()
	}
	if l.closed && len(l.pending) == 0 {
		l.mu.Unlock()
		return -1, EINVAL
	}
	c := l.pending[0]
	l.pending = l.pending[1:]
	l.mu.Unlock()
	return p.install(&FD{kind: fdConn, conn: c, sockopts: make(map[int64]int64)})
}

// Connect establishes a loopback connection to port, completing the
// three-way handshake instantly.
func (p *Process) Connect(fd int, port uint16) Errno {
	p.enter("connect")
	f, e := p.lookup(fd)
	if e != OK {
		return e
	}
	if f.kind != fdConn {
		return ENOTSOCK
	}
	k := p.k
	k.mu.Lock()
	l, ok := k.ports[port]
	k.mu.Unlock()
	if !ok {
		return ECONNREFUSED
	}
	return connectTo(f, l)
}

// ConnectWait is Connect with SYN-retransmit semantics: when nothing
// listens on port yet it blocks in the kernel — parked on the ports
// condition instead of spinning in userspace — until a listener binds or
// timeout of host time elapses (then ECONNREFUSED). A port whose listener
// already came and went refuses immediately, like a real RST. This is how
// clients race server startup without burning the scheduler.
func (p *Process) ConnectWait(fd int, port uint16, timeout time.Duration) Errno {
	p.enter("connect")
	f, e := p.lookup(fd)
	if e != OK {
		return e
	}
	if f.kind != fdConn {
		return ENOTSOCK
	}
	k := p.k
	deadline := time.Now().Add(timeout)
	k.mu.Lock()
	l, ok := k.ports[port]
	for !ok {
		if k.portsClosed[port] {
			k.mu.Unlock()
			return ECONNREFUSED
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			k.mu.Unlock()
			return ECONNREFUSED
		}
		// Cond has no timed wait; a timer broadcast bounds this one.
		t := time.AfterFunc(remain, func() {
			k.mu.Lock()
			k.portsCond.Broadcast()
			k.mu.Unlock()
		})
		k.portsCond.Wait()
		t.Stop()
		l, ok = k.ports[port]
	}
	k.mu.Unlock()
	return connectTo(f, l)
}

// connectTo completes the handshake against a resolved listener: queue the
// server end, wake acceptors and epoll watchers, attach the client end.
func connectTo(f *FD, l *listener) Errno {
	serverEnd, clientEnd := newConnPair()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ECONNREFUSED
	}
	l.pending = append(l.pending, serverEnd)
	watchers := append([]*Epoll(nil), l.watchers...)
	l.mu.Unlock()
	l.cond.Broadcast()
	for _, ep := range watchers {
		ep.wake()
	}
	f.conn = clientEnd
	return OK
}

// Recv receives from a connected socket.
func (p *Process) Recv(fd int, buf []byte) (int, Errno) {
	p.enter("recv")
	f, e := p.lookup(fd)
	if e != OK {
		return -1, e
	}
	if f.kind != fdConn || f.conn == nil {
		return -1, ENOTCONN
	}
	return f.conn.recv(buf, p.k)
}

// Send sends on a connected socket.
func (p *Process) Send(fd int, buf []byte) (int, Errno) {
	p.enter("send")
	f, e := p.lookup(fd)
	if e != OK {
		return -1, e
	}
	if f.kind != fdConn || f.conn == nil {
		return -1, ENOTCONN
	}
	return f.conn.send(buf, p.k)
}

// Shutdown closes the write direction of a connection.
func (p *Process) Shutdown(fd int, how int) Errno {
	p.enter("shutdown")
	f, e := p.lookup(fd)
	if e != OK {
		return e
	}
	if f.kind != fdConn || f.conn == nil {
		return ENOTCONN
	}
	_ = how
	f.conn.shutdown()
	return OK
}

// Setsockopt records a socket option value.
func (p *Process) Setsockopt(fd int, opt int64, val int64) Errno {
	p.enter("setsockopt")
	f, e := p.lookup(fd)
	if e != OK {
		return e
	}
	if f.sockopts == nil {
		return ENOTSOCK
	}
	f.sockopts[opt] = val
	return OK
}

// Getsockopt returns a previously recorded socket option value (zero if
// never set).
func (p *Process) Getsockopt(fd int, opt int64) (int64, Errno) {
	p.enter("getsockopt")
	f, e := p.lookup(fd)
	if e != OK {
		return 0, e
	}
	if f.sockopts == nil {
		return 0, ENOTSOCK
	}
	return f.sockopts[opt], OK
}

// Ioctl implements the FIONBIO/FIONREAD-style requests the evaluation
// applications issue: the third argument is a pointer whose pointee the
// kernel fills (the "special emulation" case of Table 1). It returns the
// value to store through that pointer.
func (p *Process) Ioctl(fd int, req int64) (int64, Errno) {
	p.enter("ioctl")
	f, e := p.lookup(fd)
	if e != OK {
		return 0, e
	}
	const fionread = 0x541B
	if req == fionread && f.kind == fdConn && f.conn != nil {
		return int64(f.conn.buffered()), OK
	}
	return 0, OK
}
