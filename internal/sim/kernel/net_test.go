package kernel

import (
	"testing"

	"smvx/internal/sim/clock"
)

// twoProcs returns a server and client process on one kernel.
func twoProcs(t *testing.T) (*Process, *Process) {
	t.Helper()
	k := New(clock.DefaultCosts(), 42)
	return k.NewProcess(clock.NewCounter()), k.NewProcess(clock.NewCounter())
}

func TestConnectRecvSendRoundTrip(t *testing.T) {
	server, client := twoProcs(t)

	lfd, e := server.Socket()
	if e != OK {
		t.Fatalf("Socket: %v", e)
	}
	if e := server.Bind(lfd, 8080); e != OK {
		t.Fatalf("Bind: %v", e)
	}
	if e := server.Listen(lfd, 128); e != OK {
		t.Fatalf("Listen: %v", e)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		cfd, e := client.Socket()
		if e != OK {
			t.Errorf("client Socket: %v", e)
			return
		}
		if e := client.Connect(cfd, 8080); e != OK {
			t.Errorf("Connect: %v", e)
			return
		}
		if _, e := client.Send(cfd, []byte("GET / HTTP/1.1\r\n\r\n")); e != OK {
			t.Errorf("Send: %v", e)
			return
		}
		buf := make([]byte, 64)
		n, e := client.Recv(cfd, buf)
		if e != OK || string(buf[:n]) != "HTTP/1.1 200 OK" {
			t.Errorf("client Recv = (%d, %v) %q", n, e, buf[:n])
		}
		_ = client.Close(cfd)
	}()

	afd, e := server.Accept4(lfd)
	if e != OK {
		t.Fatalf("Accept4: %v", e)
	}
	buf := make([]byte, 64)
	n, e := server.Recv(afd, buf)
	if e != OK || string(buf[:n]) != "GET / HTTP/1.1\r\n\r\n" {
		t.Fatalf("server Recv = (%d, %v) %q", n, e, buf[:n])
	}
	if _, e := server.Send(afd, []byte("HTTP/1.1 200 OK")); e != OK {
		t.Fatalf("server Send: %v", e)
	}
	<-done

	// Client closed: the server sees EOF.
	if n, e := server.Recv(afd, buf); e != OK || n != 0 {
		t.Errorf("Recv after peer close = (%d, %v), want EOF", n, e)
	}
}

func TestConnectRefusedWithoutListener(t *testing.T) {
	_, client := twoProcs(t)
	fd, _ := client.Socket()
	if e := client.Connect(fd, 9999); e != ECONNREFUSED {
		t.Errorf("Connect = %v, want ECONNREFUSED", e)
	}
}

func TestBindAddrInUse(t *testing.T) {
	server, other := twoProcs(t)
	fd1, _ := server.Socket()
	if e := server.Bind(fd1, 80); e != OK {
		t.Fatal(e)
	}
	fd2, _ := other.Socket()
	if e := other.Bind(fd2, 80); e != EADDRINUSE {
		t.Errorf("second Bind = %v, want EADDRINUSE", e)
	}
}

func TestShutdownDeliversEOF(t *testing.T) {
	server, client := twoProcs(t)
	lfd, _ := server.Socket()
	_ = server.Bind(lfd, 8080)
	_ = server.Listen(lfd, 1)

	cfd, _ := client.Socket()
	if e := client.Connect(cfd, 8080); e != OK {
		t.Fatal(e)
	}
	afd, _ := server.Accept4(lfd)

	if e := client.Shutdown(cfd, 1); e != OK {
		t.Fatalf("Shutdown: %v", e)
	}
	buf := make([]byte, 8)
	if n, e := server.Recv(afd, buf); e != OK || n != 0 {
		t.Errorf("Recv after shutdown = (%d, %v), want EOF", n, e)
	}
	// Writing to a shut-down peer fails.
	if _, e := client.Send(cfd, []byte("x")); e != EPIPE && e != OK {
		// The write side was shut down by us: EPIPE expected.
		t.Errorf("Send after shutdown = %v, want EPIPE", e)
	}
}

func TestSockoptsRoundTrip(t *testing.T) {
	server, _ := twoProcs(t)
	fd, _ := server.Socket()
	if e := server.Setsockopt(fd, 15, 1); e != OK {
		t.Fatalf("Setsockopt: %v", e)
	}
	v, e := server.Getsockopt(fd, 15)
	if e != OK || v != 1 {
		t.Errorf("Getsockopt = (%d, %v), want (1, OK)", v, e)
	}
	if v, _ := server.Getsockopt(fd, 99); v != 0 {
		t.Errorf("unset option = %d, want 0", v)
	}
}

func TestRecvOnNotConnected(t *testing.T) {
	server, _ := twoProcs(t)
	fd, _ := server.Socket()
	if _, e := server.Recv(fd, make([]byte, 4)); e != ENOTCONN {
		t.Errorf("Recv unconnected = %v, want ENOTCONN", e)
	}
	if _, e := server.Send(fd, []byte("x")); e != ENOTCONN {
		t.Errorf("Send unconnected = %v, want ENOTCONN", e)
	}
}

// TestReceiveMatchesReadAndRecv: Receive returns what Read or Recv would
// have copied, is accounted as that syscall, and fails the way it would.
func TestReceiveMatchesReadAndRecv(t *testing.T) {
	server, client := twoProcs(t)
	count := recordSyscalls(t, server)
	lfd, _ := server.Socket()
	_ = server.Bind(lfd, 8080)
	_ = server.Listen(lfd, 1)
	cfd, _ := client.Socket()
	if e := client.Connect(cfd, 8080); e != OK {
		t.Fatal(e)
	}
	afd, _ := server.Accept4(lfd)
	_, _ = client.Send(cfd, []byte("hello world"))
	_, _ = client.Send(cfd, []byte("xyz"))

	b, e := server.Receive(afd, 5, true)
	if e != OK || string(b) != "hello" || cap(b) != 5 {
		t.Errorf("Receive(5, recv) = (%q, %v) cap %d, want \"hello\" cap 5", b, e, cap(b))
	}
	// One receive consumes from one send record, however long the length.
	if b, e := server.Receive(afd, 1<<20, false); e != OK || string(b) != " world" {
		t.Errorf("Receive(1 MiB, read) = (%q, %v), want \" world\"", b, e)
	}
	if b, e := server.Receive(afd, 1<<20, true); e != OK || string(b) != "xyz" {
		t.Errorf("Receive = (%q, %v), want \"xyz\"", b, e)
	}
	if count("recv") != 2 || count("read") != 1 {
		t.Errorf("accounted recv %d, read %d; want 2 and 1", count("recv"), count("read"))
	}
	_ = client.Shutdown(cfd, 1)
	if b, e := server.Receive(afd, 8, true); e != OK || len(b) != 0 {
		t.Errorf("Receive after shutdown = (%q, %v), want EOF", b, e)
	}

	unconnected, _ := server.Socket()
	for _, c := range []struct {
		name string
		fd   int
		recv bool
		want Errno
	}{
		{"recv on a listener", lfd, true, ENOTCONN},
		{"read on a listener", lfd, false, EINVAL},
		{"recv on an unconnected socket", unconnected, true, ENOTCONN},
		{"read on an unconnected socket", unconnected, false, ENOTCONN},
		{"read on a bad descriptor", 999, false, EBADF},
	} {
		if _, e := server.Receive(c.fd, 4, c.recv); e != c.want {
			t.Errorf("%s = %v, want %v", c.name, e, c.want)
		}
	}
	if _, e := server.Read(unconnected, make([]byte, 4)); e != ENOTCONN {
		t.Errorf("Read unconnected = %v, want ENOTCONN", e)
	}

	server.k.FS().WriteFile("/f", []byte("file bytes"))
	ffd, _ := server.Open("/f", ORdonly)
	if b, e := server.Receive(ffd, 1<<20, false); e != OK || string(b) != "file bytes" {
		t.Errorf("Receive(file) = (%q, %v)", b, e)
	}
	if _, e := server.Receive(ffd, 4, true); e != ENOTCONN {
		t.Errorf("recv on a file = %v, want ENOTCONN", e)
	}
}

func TestIoctlFIONREAD(t *testing.T) {
	server, client := twoProcs(t)
	lfd, _ := server.Socket()
	_ = server.Bind(lfd, 8080)
	_ = server.Listen(lfd, 1)
	cfd, _ := client.Socket()
	_ = client.Connect(cfd, 8080)
	afd, _ := server.Accept4(lfd)
	_, _ = client.Send(cfd, []byte("12345"))

	n, e := server.Ioctl(afd, 0x541B)
	if e != OK || n != 5 {
		t.Errorf("Ioctl(FIONREAD) = (%d, %v), want (5, OK)", n, e)
	}
}

func TestEpollConnReadiness(t *testing.T) {
	server, client := twoProcs(t)
	lfd, _ := server.Socket()
	_ = server.Bind(lfd, 8080)
	_ = server.Listen(lfd, 8)

	epfd, e := server.EpollCreate()
	if e != OK {
		t.Fatalf("EpollCreate: %v", e)
	}
	if e := server.EpollCtl(epfd, EpollCtlAdd, lfd, EpollIn, uint64(lfd)); e != OK {
		t.Fatalf("EpollCtl add listener: %v", e)
	}

	// Nothing ready yet: non-blocking poll returns empty.
	evs, e := server.EpollWait(epfd, 16, 0)
	if e != OK || len(evs) != 0 {
		t.Fatalf("EpollWait empty = (%v, %v)", evs, e)
	}

	cfd, _ := client.Socket()
	if e := client.Connect(cfd, 8080); e != OK {
		t.Fatal(e)
	}

	// Listener becomes readable; a blocking wait picks it up.
	evs, e = server.EpollWait(epfd, 16, -1)
	if e != OK || len(evs) != 1 || evs[0].Data != uint64(lfd) || evs[0].Events&EpollIn == 0 {
		t.Fatalf("EpollWait listener = (%v, %v)", evs, e)
	}

	afd, _ := server.Accept4(lfd)
	if e := server.EpollCtl(epfd, EpollCtlAdd, afd, EpollIn, uint64(afd)); e != OK {
		t.Fatal(e)
	}
	_, _ = client.Send(cfd, []byte("data"))
	evs, e = server.EpollWait(epfd, 16, -1)
	if e != OK {
		t.Fatal(e)
	}
	var sawConn bool
	for _, ev := range evs {
		if ev.Data == uint64(afd) && ev.Events&EpollIn != 0 {
			sawConn = true
		}
	}
	if !sawConn {
		t.Errorf("conn not reported readable: %v", evs)
	}
}

func TestEpollCtlErrors(t *testing.T) {
	server, _ := twoProcs(t)
	epfd, _ := server.EpollCreate()
	fd, _ := server.Open("/dev/null", ORdwr)
	if e := server.EpollCtl(epfd, EpollCtlMod, fd, EpollIn, 0); e != ENOENT {
		t.Errorf("Mod before Add = %v, want ENOENT", e)
	}
	if e := server.EpollCtl(epfd, EpollCtlAdd, fd, EpollIn, 0); e != OK {
		t.Fatal(e)
	}
	if e := server.EpollCtl(epfd, EpollCtlAdd, fd, EpollIn, 0); e != EEXIST {
		t.Errorf("double Add = %v, want EEXIST", e)
	}
	if e := server.EpollCtl(epfd, EpollCtlDel, fd, 0, 0); e != OK {
		t.Errorf("Del = %v", e)
	}
	if e := server.EpollCtl(epfd, EpollCtlDel, fd, 0, 0); e != ENOENT {
		t.Errorf("double Del = %v, want ENOENT", e)
	}
	if e := server.EpollCtl(fd, EpollCtlAdd, epfd, EpollIn, 0); e != EINVAL {
		t.Errorf("EpollCtl on non-epoll fd = %v, want EINVAL", e)
	}
}

func TestEpollPwaitMatchesWait(t *testing.T) {
	server, client := twoProcs(t)
	lfd, _ := server.Socket()
	_ = server.Bind(lfd, 8081)
	_ = server.Listen(lfd, 8)
	epfd, _ := server.EpollCreate()
	_ = server.EpollCtl(epfd, EpollCtlAdd, lfd, EpollIn, 7)

	cfd, _ := client.Socket()
	_ = client.Connect(cfd, 8081)

	evs, e := server.EpollPwait(epfd, 4, -1, 0xffff)
	if e != OK || len(evs) != 1 || evs[0].Data != 7 {
		t.Errorf("EpollPwait = (%v, %v)", evs, e)
	}
}

func TestEpollHupOnPeerClose(t *testing.T) {
	server, client := twoProcs(t)
	lfd, _ := server.Socket()
	_ = server.Bind(lfd, 8082)
	_ = server.Listen(lfd, 8)
	cfd, _ := client.Socket()
	_ = client.Connect(cfd, 8082)
	afd, _ := server.Accept4(lfd)

	epfd, _ := server.EpollCreate()
	_ = server.EpollCtl(epfd, EpollCtlAdd, afd, EpollIn, uint64(afd))
	_ = client.Close(cfd)

	evs, e := server.EpollWait(epfd, 4, -1)
	if e != OK || len(evs) != 1 {
		t.Fatalf("EpollWait = (%v, %v)", evs, e)
	}
	if evs[0].Events&EpollHup == 0 {
		t.Errorf("expected EPOLLHUP, got events %#x", evs[0].Events)
	}
}

func TestAcceptUnblocksOnListenerClose(t *testing.T) {
	server, _ := twoProcs(t)
	lfd, _ := server.Socket()
	_ = server.Bind(lfd, 8083)
	_ = server.Listen(lfd, 8)

	done := make(chan Errno, 1)
	go func() {
		_, e := server.Accept4(lfd)
		done <- e
	}()
	_ = server.Close(lfd)
	// EINVAL when the accept was already blocked, EBADF when the close won
	// the race to the fd table; either way the accept must not hang.
	if e := <-done; e != EINVAL && e != EBADF {
		t.Errorf("Accept4 after close = %v, want EINVAL or EBADF", e)
	}
}

func TestEpollWaitUnblocksOnClose(t *testing.T) {
	server, _ := twoProcs(t)
	epfd, _ := server.EpollCreate()
	fd, _ := server.Socket()
	lp, _ := server.Socket()
	_ = server.Bind(lp, 8084)
	_ = server.EpollCtl(epfd, EpollCtlAdd, lp, EpollIn, 1)
	_ = fd

	done := make(chan Errno, 1)
	go func() {
		_, e := server.EpollWait(epfd, 4, -1)
		done <- e
	}()
	_ = server.Close(epfd)
	if e := <-done; e != EBADF {
		t.Errorf("EpollWait after close = %v, want EBADF", e)
	}
}
