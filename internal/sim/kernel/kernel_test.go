package kernel

import (
	"bytes"
	"testing"

	"smvx/internal/obs"
	"smvx/internal/sim/clock"
)

func newTestProc(t *testing.T) *Process {
	t.Helper()
	k := New(clock.DefaultCosts(), 42)
	return k.NewProcess(clock.NewCounter())
}

// recordSyscalls attaches a recorder to p and returns how many syscalls of
// a name p has entered since, counted as the recorder's EvSyscall events.
func recordSyscalls(t *testing.T, p *Process) func(name string) int {
	t.Helper()
	rec := obs.NewRecorder(obs.Config{})
	p.SetRecorder(rec)
	return func(name string) int {
		if rec.Evicted() != 0 {
			t.Fatalf("recorder evicted %d events", rec.Evicted())
		}
		n := 0
		for _, e := range rec.Events() {
			if e.Kind == obs.EvSyscall && e.Name == name {
				n++
			}
		}
		return n
	}
}

func TestErrnoStrings(t *testing.T) {
	if ENOENT.String() != "ENOENT" {
		t.Errorf("ENOENT.String() = %q", ENOENT)
	}
	if Errno(999).String() != "errno(999)" {
		t.Errorf("unknown errno = %q", Errno(999))
	}
	if ENOENT.Error() != "ENOENT" {
		t.Error("Error() should mirror String()")
	}
}

func TestOpenReadWriteFile(t *testing.T) {
	p := newTestProc(t)
	fd, e := p.Open("/var/www/index.html", OCreat|OWronly)
	if e != OK {
		t.Fatalf("Open: %v", e)
	}
	if n, e := p.Write(fd, []byte("hello")); e != OK || n != 5 {
		t.Fatalf("Write = (%d, %v)", n, e)
	}
	if e := p.Close(fd); e != OK {
		t.Fatalf("Close: %v", e)
	}

	fd, e = p.Open("/var/www/index.html", ORdonly)
	if e != OK {
		t.Fatalf("reopen: %v", e)
	}
	buf := make([]byte, 16)
	n, e := p.Read(fd, buf)
	if e != OK || n != 5 || string(buf[:5]) != "hello" {
		t.Fatalf("Read = (%d, %v) %q", n, e, buf[:n])
	}
	// Second read: EOF.
	if n, e := p.Read(fd, buf); e != OK || n != 0 {
		t.Fatalf("Read at EOF = (%d, %v), want (0, OK)", n, e)
	}
}

func TestOpenMissingFile(t *testing.T) {
	p := newTestProc(t)
	if _, e := p.Open("/no/such/file", ORdonly); e != ENOENT {
		t.Errorf("Open missing = %v, want ENOENT", e)
	}
}

func TestOpenTruncAndAppend(t *testing.T) {
	p := newTestProc(t)
	p.k.FS().WriteFile("/f", []byte("original"))
	fd, _ := p.Open("/f", OWronly|OTrunc)
	_, _ = p.Write(fd, []byte("new"))
	_ = p.Close(fd)
	data, _ := p.k.FS().ReadFile("/f")
	if string(data) != "new" {
		t.Errorf("after O_TRUNC write: %q", data)
	}

	fd, _ = p.Open("/f", OWronly|OAppend)
	_, _ = p.Write(fd, []byte("+more"))
	_ = p.Close(fd)
	data, _ = p.k.FS().ReadFile("/f")
	if string(data) != "new+more" {
		t.Errorf("after O_APPEND write: %q", data)
	}
}

func TestWritev(t *testing.T) {
	p := newTestProc(t)
	fd, _ := p.Open("/v", OCreat|OWronly)
	n, e := p.Writev(fd, [][]byte{[]byte("HTTP/1.1 200 OK\r\n"), []byte("\r\n"), []byte("body")})
	if e != OK || n != 23 {
		t.Fatalf("Writev = (%d, %v)", n, e)
	}
	data, _ := p.k.FS().ReadFile("/v")
	if string(data) != "HTTP/1.1 200 OK\r\n\r\nbody" {
		t.Errorf("Writev contents = %q", data)
	}
}

func TestStatFstat(t *testing.T) {
	p := newTestProc(t)
	p.k.FS().WriteFile("/www/page.html", bytes.Repeat([]byte("x"), 4096))
	st, e := p.StatPath("/www/page.html")
	if e != OK || st.Size != 4096 || st.Mode != 1 {
		t.Fatalf("StatPath = (%+v, %v)", st, e)
	}
	if st, e := p.StatPath("/www"); e != OK || st.Mode != 2 {
		t.Errorf("StatPath dir = (%+v, %v)", st, e)
	}
	if _, e := p.StatPath("/nope"); e != ENOENT {
		t.Errorf("StatPath missing = %v", e)
	}
	fd, _ := p.Open("/www/page.html", ORdonly)
	st, e = p.Fstat(fd)
	if e != OK || st.Size != 4096 {
		t.Errorf("Fstat = (%+v, %v)", st, e)
	}
}

func TestURandomDeterministic(t *testing.T) {
	k1 := New(clock.DefaultCosts(), 7)
	k2 := New(clock.DefaultCosts(), 7)
	p1 := k1.NewProcess(nil)
	p2 := k2.NewProcess(nil)
	fd1, _ := p1.Open("/dev/urandom", ORdonly)
	fd2, _ := p2.Open("/dev/urandom", ORdonly)
	b1 := make([]byte, 32)
	b2 := make([]byte, 32)
	_, _ = p1.Read(fd1, b1)
	_, _ = p2.Read(fd2, b2)
	if !bytes.Equal(b1, b2) {
		t.Error("urandom with equal seeds must match")
	}
	var zero [32]byte
	if bytes.Equal(b1, zero[:]) {
		t.Error("urandom returned all zeros")
	}
}

func TestMkdir(t *testing.T) {
	p := newTestProc(t)
	if e := p.Mkdir("/pwned"); e != OK {
		t.Fatalf("Mkdir: %v", e)
	}
	if !p.k.FS().DirExists("/pwned") {
		t.Error("directory should exist")
	}
	if e := p.Mkdir("/pwned"); e != EEXIST {
		t.Errorf("second Mkdir = %v, want EEXIST", e)
	}
}

func TestSendfile(t *testing.T) {
	p := newTestProc(t)
	p.k.FS().WriteFile("/page", []byte("0123456789"))
	in, _ := p.Open("/page", ORdonly)
	out, _ := p.Open("/out", OCreat|OWronly)
	n, e := p.Sendfile(out, in, 4)
	if e != OK || n != 4 {
		t.Fatalf("Sendfile = (%d, %v)", n, e)
	}
	n, e = p.Sendfile(out, in, 100)
	if e != OK || n != 6 {
		t.Fatalf("Sendfile rest = (%d, %v)", n, e)
	}
	data, _ := p.k.FS().ReadFile("/out")
	if string(data) != "0123456789" {
		t.Errorf("sendfile output = %q", data)
	}
	if n, e := p.Sendfile(out, in, 10); e != OK || n != 0 {
		t.Errorf("Sendfile at EOF = (%d, %v)", n, e)
	}
}

func TestCloseAndBadFD(t *testing.T) {
	p := newTestProc(t)
	fd, _ := p.Open("/dev/null", ORdwr)
	if e := p.Close(fd); e != OK {
		t.Fatalf("Close: %v", e)
	}
	if e := p.Close(fd); e != EBADF {
		t.Errorf("double Close = %v, want EBADF", e)
	}
	if _, e := p.Read(fd, make([]byte, 1)); e != EBADF {
		t.Errorf("Read closed fd = %v, want EBADF", e)
	}
	if _, e := p.Write(999, []byte("x")); e != EBADF {
		t.Errorf("Write bad fd = %v, want EBADF", e)
	}
}

func TestSyscallCounting(t *testing.T) {
	p := newTestProc(t)
	count := recordSyscalls(t, p)
	fd, _ := p.Open("/dev/null", ORdwr)
	_, _ = p.Write(fd, []byte("a"))
	_, _ = p.Write(fd, []byte("b"))
	if got := count("write"); got != 2 {
		t.Errorf("write syscalls = %d, want 2", got)
	}
	if got := count("open"); got != 1 {
		t.Errorf("open syscalls = %d, want 1", got)
	}
	if got := p.SyscallTotal(); got != 3 {
		t.Errorf("SyscallTotal = %d, want 3", got)
	}
}

func TestSyscallChargesCycles(t *testing.T) {
	k := New(clock.DefaultCosts(), 1)
	ctr := clock.NewCounter()
	p := k.NewProcess(ctr)
	_, _ = p.Open("/dev/null", ORdwr)
	if got := ctr.Cycles(); got < clock.DefaultCosts().SyscallCost() {
		t.Errorf("cycles after open = %d, want >= one syscall cost", got)
	}
}

func TestGettimeofdayAdvancesWithWork(t *testing.T) {
	k := New(clock.DefaultCosts(), 1)
	ctr := clock.NewCounter()
	p := k.NewProcess(ctr)
	t1, e := p.Gettimeofday()
	if e != OK {
		t.Fatal(e)
	}
	ctr.Charge(clock.FrequencyHz) // one simulated second of work
	t2, _ := p.Gettimeofday()
	if t2.Sec != t1.Sec+1 {
		t.Errorf("time did not advance by 1s: %+v -> %+v", t1, t2)
	}
}

func TestLocaltime(t *testing.T) {
	p := newTestProc(t)
	tod, _ := p.Gettimeofday()
	bd := p.Localtime(tod.Sec)
	// Simulation epoch is 2024-12-02 09:00:00 UTC, a Monday.
	if bd.Year != 124 || bd.Mon != 11 || bd.MDay != 2 || bd.Hour != 9 || bd.WDay != 1 {
		t.Errorf("Localtime = %+v", bd)
	}
}

func TestCloneThreadRunsAndWaits(t *testing.T) {
	p := newTestProc(t)
	ran := false
	th := p.CloneThread(func() error {
		ran = true
		return nil
	})
	if err := th.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !ran {
		t.Error("thread function did not run")
	}
	if th.TID() < 1000 {
		t.Errorf("TID = %d", th.TID())
	}
}

func TestCloneVsForkCost(t *testing.T) {
	k := New(clock.DefaultCosts(), 1)
	ctr := clock.NewCounter()
	p := k.NewProcess(ctr)

	before := ctr.Cycles()
	th := p.CloneThread(func() error { return nil })
	_ = th.Wait()
	cloneCost := ctr.Cycles() - before

	before = ctr.Cycles()
	p.Fork(0)
	forkCost := ctr.Cycles() - before

	if forkCost <= cloneCost*10 {
		t.Errorf("fork (%d) should be far costlier than clone (%d) — Table 2", forkCost, cloneCost)
	}

	before = ctr.Cycles()
	p.Fork(400) // lighttpd-init-sized residency
	forkInit := ctr.Cycles() - before
	if forkInit <= forkCost {
		t.Error("fork with resident pages must cost more than empty fork")
	}
}

func TestOpenFDCount(t *testing.T) {
	p := newTestProc(t)
	if p.OpenFDCount() != 0 {
		t.Fatal("fresh process should have no fds")
	}
	fd, _ := p.Open("/dev/null", ORdwr)
	if p.OpenFDCount() != 1 {
		t.Error("want 1 open fd")
	}
	_ = p.Close(fd)
	if p.OpenFDCount() != 0 {
		t.Error("want 0 open fds after close")
	}
}
