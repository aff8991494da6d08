package libc

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"smvx/internal/obs"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// rig wires a full stack: image + address space + kernel + libc + machine.
type rig struct {
	img  *image.Image
	prog *machine.Program
	m    *machine.Machine
	l    *LibC
	as   *mem.AddressSpace
	k    *kernel.Kernel
	proc *kernel.Process
}

const heapBase = mem.Addr(0x10000000)
const heapSize = uint64(1 << 20)

func newRig(t testing.TB) *rig {
	t.Helper()
	img := image.NewBuilder("app", 0x400000).
		AddFunc("main", 256).
		AddBSS("g_buf", 8192).
		NeedLibc(Names()...).
		Build()
	ctr := clock.NewCounter()
	costs := clock.DefaultCosts()
	as := mem.NewAddressSpace(ctr, costs)
	if err := img.MapInto(as, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Map(mem.Region{Name: "heap", Base: heapBase, Size: heapSize, Perm: mem.PermRW}); err != nil {
		t.Fatal(err)
	}
	k := kernel.New(costs, 7)
	proc := k.NewProcess(ctr)
	l := New(proc, ctr, costs, 7)
	l.RegisterHeap(0, heapBase, heapSize)
	l.BindPLT(img.PLTSlots())
	prog := machine.NewProgram(img)
	m := machine.New(prog, as, proc, l, ctr, costs)
	return &rig{img: img, prog: prog, m: m, l: l, as: as, k: k, proc: proc}
}

// run executes body as "main" on a fresh thread and returns its value.
func (r *rig) run(t *testing.T, body machine.Body) uint64 {
	t.Helper()
	r.prog.MustDefine("main", body)
	th, err := r.m.NewThread("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	if err := th.Run(func(t *machine.Thread) { got = t.Call("main") }); err != nil {
		t.Fatalf("run: %v", err)
	}
	return got
}

func TestTable1CategoriesMatchPaper(t *testing.T) {
	retOnly := []string{"open", "close", "shutdown", "write", "writev", "epoll_ctl", "setsockopt"}
	retBuf := []string{"sendfile", "stat", "read", "fstat", "gettimeofday", "accept4", "recv", "getsockopt", "localtime_r"}
	special := []string{"ioctl", "epoll_wait", "epoll_pwait"}
	for _, n := range retOnly {
		if CategoryOf(n) != CatRetOnly {
			t.Errorf("%s: category = %v, want CatRetOnly (Table 1)", n, CategoryOf(n))
		}
	}
	for _, n := range retBuf {
		if CategoryOf(n) != CatRetBuf {
			t.Errorf("%s: category = %v, want CatRetBuf (Table 1)", n, CategoryOf(n))
		}
	}
	for _, n := range special {
		if CategoryOf(n) != CatSpecial {
			t.Errorf("%s: category = %v, want CatSpecial (Table 1)", n, CategoryOf(n))
		}
	}
	if CategoryOf("malloc") != CatLocal {
		t.Error("malloc must execute locally per variant")
	}
	if CategoryOf("unknown_call") != CatRetOnly {
		t.Error("unknown calls default to the conservative category")
	}
	if len(Names()) < 35 {
		t.Errorf("simulated libc calls = %d, want >= 35 (Section 4)", len(Names()))
	}
}

func TestCategoryStrings(t *testing.T) {
	for _, c := range []Category{CatRetOnly, CatRetBuf, CatSpecial, CatLocal} {
		if c.String() == "unknown" {
			t.Errorf("category %d has no name", c)
		}
	}
	if Category(0).String() != "unknown" {
		t.Error("zero category should be unknown")
	}
}

func TestOpenWriteReadCloseThroughPLT(t *testing.T) {
	r := newRig(t)
	got := r.run(t, func(t *machine.Thread, args []uint64) uint64 {
		g := t.Global("g_buf")
		t.WriteCString(g, "/data/file.txt")
		fd := t.Libc("open", uint64(g), uint64(kernel.OCreat|kernel.ORdwr))
		if int64(fd) < 0 {
			return 1
		}
		payload := g + 256
		t.WriteCString(payload, "hello")
		if n := t.Libc("write", fd, uint64(payload), 5); n != 5 {
			return 2
		}
		t.Libc("close", fd)
		fd = t.Libc("open", uint64(g), 0)
		out := g + 512
		if n := t.Libc("read", fd, uint64(out), 64); n != 5 {
			return 3
		}
		if t.CString(out, 5) != "hello" {
			return 4
		}
		t.Libc("close", fd)
		return 0
	})
	if got != 0 {
		t.Errorf("scenario failed at step %d", got)
	}
	if r.l.CallCount("open") != 2 || r.l.CallCount("write") != 1 {
		t.Errorf("call counts: open=%d write=%d", r.l.CallCount("open"), r.l.CallCount("write"))
	}
	if r.l.TotalCalls() != 6 {
		t.Errorf("TotalCalls = %d, want 6", r.l.TotalCalls())
	}
}

func TestOpenMissingSetsErrno(t *testing.T) {
	r := newRig(t)
	r.prog.MustDefine("main", func(t *machine.Thread, args []uint64) uint64 {
		g := t.Global("g_buf")
		t.WriteCString(g, "/missing")
		ret := t.Libc("open", uint64(g), 0)
		if ret != Neg1 {
			return 1
		}
		if t.Errno() != kernel.ENOENT {
			return 2
		}
		return 0
	})
	th, _ := r.m.NewThread("t", 0)
	var got uint64
	if err := th.Run(func(t *machine.Thread) { got = t.Call("main") }); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("errno scenario failed at step %d", got)
	}
}

func TestMallocFreeReuse(t *testing.T) {
	r := newRig(t)
	got := r.run(t, func(t *machine.Thread, args []uint64) uint64 {
		a := t.Libc("malloc", 100)
		if a == 0 {
			return 1
		}
		t.Store64(mem.Addr(a), 0xfeed)
		if t.Load64(mem.Addr(a)) != 0xfeed {
			return 2
		}
		t.Libc("free", a)
		b := t.Libc("malloc", 100)
		if b != a {
			return 3 // freelist should reuse the same class block
		}
		return 0
	})
	if got != 0 {
		t.Errorf("malloc scenario failed at step %d", got)
	}
}

func TestCallocZeroesAndRealloc(t *testing.T) {
	r := newRig(t)
	got := r.run(t, func(t *machine.Thread, args []uint64) uint64 {
		a := mem.Addr(t.Libc("calloc", 4, 8))
		for i := 0; i < 32; i += 8 {
			if t.Load64(a+mem.Addr(i)) != 0 {
				return 1
			}
		}
		t.Store64(a, 0xabc)
		b := mem.Addr(t.Libc("realloc", uint64(a), 128))
		if b == 0 || b == a {
			return 2
		}
		if t.Load64(b) != 0xabc {
			return 3 // contents must move
		}
		return 0
	})
	if got != 0 {
		t.Errorf("calloc/realloc failed at step %d", got)
	}
}

func TestFreeNullIsNoop(t *testing.T) {
	r := newRig(t)
	got := r.run(t, func(t *machine.Thread, args []uint64) uint64 {
		t.Libc("free", 0)
		return 0
	})
	if got != 0 {
		t.Error("free(NULL) crashed")
	}
}

func TestDoubleFreeCrashes(t *testing.T) {
	r := newRig(t)
	r.prog.MustDefine("main", func(t *machine.Thread, args []uint64) uint64 {
		a := t.Libc("malloc", 8)
		t.Libc("free", a)
		t.Libc("free", a)
		return 0
	})
	th, _ := r.m.NewThread("t", 0)
	if err := th.Run(func(t *machine.Thread) { t.Call("main") }); err == nil {
		t.Error("double free should crash the simulated thread")
	}
}

func TestStringFunctions(t *testing.T) {
	r := newRig(t)
	got := r.run(t, func(t *machine.Thread, args []uint64) uint64 {
		g := t.Global("g_buf")
		t.WriteCString(g, "GET /index.html")
		if t.Libc("strlen", uint64(g)) != 15 {
			return 1
		}
		t.WriteCString(g+64, "GET /index.html")
		if t.Libc("strcmp", uint64(g), uint64(g+64)) != 0 {
			return 2
		}
		t.WriteCString(g+128, "GET /other")
		if int64(t.Libc("strncmp", uint64(g), uint64(g+128), 4)) != 0 {
			return 3
		}
		if int64(t.Libc("strcmp", uint64(g), uint64(g+128))) == 0 {
			return 4
		}
		t.WriteCString(g+192, "-123x")
		if int64(t.Libc("atoi", uint64(g+192))) != -123 {
			return 5
		}
		return 0
	})
	if got != 0 {
		t.Errorf("string scenario failed at step %d", got)
	}
}

// TestStrncmpHugeBound: a size_t bound of 2^63 or more compares up to
// CStrMax, as strcmp does, instead of comparing nothing.
func TestStrncmpHugeBound(t *testing.T) {
	r := newRig(t)
	bounds := []struct {
		name string
		n    uint64
	}{{"SIZE_MAX", ^uint64(0)}, {"2^63", 1 << 63}, {"CStrMax+1", CStrMax + 1}}
	var cmp int64
	ncmp := make([]int64, len(bounds))
	r.run(t, func(t *machine.Thread, args []uint64) uint64 {
		g := t.Global("g_buf")
		t.WriteCString(g, "abc")
		t.WriteCString(g+64, "xyz")
		cmp = int64(t.Libc("strcmp", uint64(g), uint64(g+64)))
		for i, b := range bounds {
			ncmp[i] = int64(t.Libc("strncmp", uint64(g), uint64(g+64), b.n))
		}
		return 0
	})
	if cmp != -1 {
		t.Fatalf("strcmp(abc, xyz) = %d, want -1", cmp)
	}
	for i, b := range bounds {
		if ncmp[i] != cmp {
			t.Errorf("strncmp(abc, xyz, %s) = %d, want strcmp's %d", b.name, ncmp[i], cmp)
		}
	}
}

func TestSnprintf(t *testing.T) {
	r := newRig(t)
	got := r.run(t, func(t *machine.Thread, args []uint64) uint64 {
		g := t.Global("g_buf")
		fmtAddr := g + 512
		t.WriteCString(fmtAddr, "Content-Length: %d %s %% %x")
		sArg := g + 600
		t.WriteCString(sArg, "bytes")
		n := t.Libc("snprintf", uint64(g), 128, uint64(fmtAddr), 4096, uint64(sArg), 255)
		if t.CString(g, 128) != "Content-Length: 4096 bytes % ff" {
			return 1
		}
		if n == 0 {
			return 2
		}
		return 0
	})
	if got != 0 {
		t.Errorf("snprintf failed at step %d", got)
	}
}

func TestGettimeofdayAndLocaltime(t *testing.T) {
	r := newRig(t)
	got := r.run(t, func(t *machine.Thread, args []uint64) uint64 {
		g := t.Global("g_buf")
		if t.Libc("gettimeofday", uint64(g), 0) != 0 {
			return 1
		}
		sec := t.Load64(g)
		if sec == 0 {
			return 2
		}
		// localtime_r(&sec, &tm)
		t.Store64(g+64, sec)
		t.Libc("localtime_r", uint64(g+64), uint64(g+128))
		hour := int64(t.Load64(g + 128 + 16))
		if hour != 9 { // simulation epoch is 09:00 UTC
			return 3
		}
		if t.Libc("time", 0) != sec {
			return 4
		}
		return 0
	})
	if got != 0 {
		t.Errorf("time scenario failed at step %d", got)
	}
}

func TestSocketPathThroughLibc(t *testing.T) {
	r := newRig(t)
	client := r.k.NewProcess(clock.NewCounter())

	r.prog.MustDefine("main", func(t *machine.Thread, args []uint64) uint64 {
		g := t.Global("g_buf")
		lfd := t.Libc("socket")
		if t.Libc("bind", lfd, 8080) != 0 {
			return 1
		}
		if t.Libc("listen", lfd, 64) != 0 {
			return 2
		}
		afd := t.Libc("accept4", lfd)
		if int64(afd) < 0 {
			return 3
		}
		n := t.Libc("recv", afd, uint64(g), 128)
		if n == 0 || n == Neg1 {
			return 4
		}
		// Network input must be tainted at the recv boundary.
		if r.as.TaintEnabled() && r.as.TaintOf(g, int(n)) != mem.TaintNetwork {
			return 5
		}
		if t.Libc("send", afd, uint64(g), n) != n {
			return 6
		}
		t.Libc("close", afd)
		t.Libc("close", lfd)
		return 0
	})
	r.as.EnableTaint()

	th, _ := r.m.NewThread("server", 0)
	done := make(chan error, 1)
	var rc uint64
	go func() {
		done <- th.Run(func(t *machine.Thread) { rc = t.Call("main") })
	}()

	cfd, _ := client.Socket()
	for client.Connect(cfd, 8080) != kernel.OK {
		// Server may not have bound yet; retry.
	}
	_, _ = client.Send(cfd, []byte("ping"))
	buf := make([]byte, 16)
	n, e := client.Recv(cfd, buf)
	if e != kernel.OK || string(buf[:n]) != "ping" {
		t.Errorf("echo = (%d, %v) %q", n, e, buf[:n])
	}
	_ = client.Close(cfd)
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if rc != 0 {
		t.Errorf("server scenario failed at step %d", rc)
	}
}

// TestHugeRecvStagesOnlyDeliveredBytes is CVE-2013-2028's delivery: a
// recv whose length is a huge size_t, on a socket holding 300 bytes. It
// must return 300, write and taint exactly those bytes, and allocate
// nothing near the 1 MiB the length clamps to.
func TestHugeRecvStagesOnlyDeliveredBytes(t *testing.T) {
	r := newRig(t)
	r.as.EnableTaint()
	client := r.k.NewProcess(clock.NewCounter())
	payload := bytes.Repeat([]byte("A"), 300)
	sent := make(chan struct{})

	var g mem.Addr
	var got, allocated uint64
	r.prog.MustDefine("main", func(t *machine.Thread, args []uint64) uint64 {
		g = t.Global("g_buf")
		lfd := t.Libc("socket")
		t.Libc("bind", lfd, 8181)
		t.Libc("listen", lfd, 64)
		afd := t.Libc("accept4", lfd)
		t.Memset(g, 0xee, 1024)
		<-sent
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got = t.Libc("recv", afd, uint64(g), ^uint64(0)>>1)
		runtime.ReadMemStats(&after)
		allocated = after.TotalAlloc - before.TotalAlloc
		t.Libc("close", afd)
		t.Libc("close", lfd)
		return 0
	})
	th, _ := r.m.NewThread("server", 0)
	done := make(chan error, 1)
	go func() { done <- th.Run(func(t *machine.Thread) { t.Call("main") }) }()

	cfd, _ := client.Socket()
	for client.Connect(cfd, 8181) != kernel.OK {
		// Server may not have bound yet; retry.
	}
	if n, e := client.Send(cfd, payload); e != kernel.OK || n != len(payload) {
		t.Fatalf("send = (%d, %v)", n, e)
	}
	close(sent)
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	_ = client.Close(cfd)

	if got != uint64(len(payload)) {
		t.Fatalf("recv returned %d, want %d", got, len(payload))
	}
	buf := make([]byte, 1024)
	if err := r.as.ReadAt(g, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:300], payload) || !bytes.Equal(buf[300:], bytes.Repeat([]byte{0xee}, 1024-300)) {
		t.Error("recv must write the 300 delivered bytes and nothing past them")
	}
	for i := 0; i < 300; i++ {
		if r.as.TaintOf(g+mem.Addr(i), 1) != mem.TaintNetwork {
			t.Fatalf("delivered byte %d is not network-tainted", i)
		}
	}
	if tag := r.as.TaintOf(g+300, 1024-300); tag != mem.TaintNone {
		t.Errorf("bytes past the delivery are tainted %v", tag)
	}
	if allocated >= 64<<10 {
		t.Errorf("recv allocated %d bytes for a 300-byte delivery", allocated)
	}
}

func TestEpollThroughLibc(t *testing.T) {
	r := newRig(t)
	client := r.k.NewProcess(clock.NewCounter())

	r.prog.MustDefine("main", func(t *machine.Thread, args []uint64) uint64 {
		g := t.Global("g_buf")
		lfd := t.Libc("socket")
		t.Libc("bind", lfd, 9090)
		t.Libc("listen", lfd, 64)
		epfd := t.Libc("epoll_create")
		// struct epoll_event { events; data } at g.
		t.Store64(g, uint64(kernel.EpollIn))
		t.Store64(g+8, lfd)
		if t.Libc("epoll_ctl", epfd, uint64(kernel.EpollCtlAdd), lfd, uint64(g)) != 0 {
			return 1
		}
		evBuf := g + 1024
		n := t.Libc("epoll_wait", epfd, uint64(evBuf), 8, ^uint64(0) /* -1 */)
		if n != 1 {
			return 2
		}
		if t.Load64(evBuf+8) != lfd {
			return 3 // epoll_data mismatch
		}
		afd := t.Libc("accept4", lfd)
		rbuf := g + 2048
		t.Libc("recv", afd, uint64(rbuf), 64)
		// ioctl FIONREAD with pointer third argument (special category).
		t.Store64(g+3072, 0)
		t.Libc("ioctl", afd, 0x541B, uint64(g+3072))
		t.Libc("close", afd)
		t.Libc("close", epfd)
		t.Libc("close", lfd)
		return 0
	})

	th, _ := r.m.NewThread("server", 0)
	done := make(chan error, 1)
	var rc uint64
	go func() {
		done <- th.Run(func(t *machine.Thread) { rc = t.Call("main") })
	}()

	cfd, _ := client.Socket()
	for client.Connect(cfd, 9090) != kernel.OK {
	}
	_, _ = client.Send(cfd, []byte("x"))
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if rc != 0 {
		t.Errorf("epoll scenario failed at step %d", rc)
	}
	_ = client.Close(cfd)
}

func TestWritevThroughLibc(t *testing.T) {
	r := newRig(t)
	got := r.run(t, func(t *machine.Thread, args []uint64) uint64 {
		g := t.Global("g_buf")
		t.WriteCString(g, "/wv")
		fd := t.Libc("open", uint64(g), uint64(kernel.OCreat|kernel.OWronly))
		// Two iovecs at g+512: {base,len} pairs.
		t.WriteBytes(g+256, []byte("HTTP/1.1 "))
		t.WriteBytes(g+300, []byte("200 OK"))
		t.Store64(g+512, uint64(g+256))
		t.Store64(g+520, 9)
		t.Store64(g+528, uint64(g+300))
		t.Store64(g+536, 6)
		if t.Libc("writev", fd, uint64(g+512), 2) != 15 {
			return 1
		}
		t.Libc("close", fd)
		return 0
	})
	if got != 0 {
		t.Fatalf("writev failed at step %d", got)
	}
	data, _ := r.k.FS().ReadFile("/wv")
	if string(data) != "HTTP/1.1 200 OK" {
		t.Errorf("writev contents = %q", data)
	}
}

func TestStatFstatSendfileMkdir(t *testing.T) {
	r := newRig(t)
	r.k.FS().WriteFile("/www/x", []byte("0123456789abcdef"))
	got := r.run(t, func(t *machine.Thread, args []uint64) uint64 {
		g := t.Global("g_buf")
		t.WriteCString(g, "/www/x")
		if t.Libc("stat", uint64(g), uint64(g+256)) != 0 {
			return 1
		}
		if t.Load64(g+256) != 16 {
			return 2 // st_size
		}
		fd := t.Libc("open", uint64(g), 0)
		if t.Libc("fstat", fd, uint64(g+512)) != 0 {
			return 3
		}
		if t.Load64(g+512) != 16 {
			return 4
		}
		t.WriteCString(g+1024, "/out")
		out := t.Libc("open", uint64(g+1024), uint64(kernel.OCreat|kernel.OWronly))
		if t.Libc("sendfile", out, fd, 0, 16) != 16 {
			return 5
		}
		t.WriteCString(g+2048, "/newdir")
		if t.Libc("mkdir", uint64(g+2048), 0755) != 0 {
			return 6
		}
		return 0
	})
	if got != 0 {
		t.Errorf("stat/sendfile scenario failed at step %d", got)
	}
	if !r.k.FS().DirExists("/newdir") {
		t.Error("mkdir did not create directory")
	}
}

// TestInstrumentedCallBuildsNoMetricName: with a recorder attached, a call
// observes its per-call and per-category histograms under names built once,
// so it allocates no more objects than the same call uninstrumented; the
// prebuilt names, and the lockstep category counters, are the names the
// metric tables and dashboards read.
func TestInstrumentedCallBuildsNoMetricName(t *testing.T) {
	r := newRig(t)
	var bare, instrumented float64
	r.run(t, func(th *machine.Thread, _ []uint64) uint64 {
		args := []uint64{uint64(th.Global("g_buf"))}
		slot, _ := r.img.PLTSlot("strlen")
		bare = testing.AllocsPerRun(100, func() { r.l.Call(th, slot, "strlen", args) })
		r.l.SetRecorder(obs.NewRecorder(obs.Config{}))
		instrumented = testing.AllocsPerRun(100, func() { r.l.Call(th, slot, "strlen", args) })
		return 0
	})
	if instrumented != bare {
		t.Errorf("instrumented strlen allocates %v objects, uninstrumented %v", instrumented, bare)
	}
	m := r.l.rec.Metrics()
	if m.Histogram("libc.cycles.strlen").Count == 0 {
		t.Error("no libc.cycles.strlen observations")
	}
	if m.Histogram("libc.cycles{category=local}").Count == 0 {
		t.Error("no libc.cycles{category=local} observations")
	}
	for c, label := range map[Category]string{CatRetOnly: "ret_only", CatRetBuf: "ret_buf", CatSpecial: "special", CatLocal: "local"} {
		if got, want := obs.LockstepCategoryMetricName(uint64(c)), "lockstep.category."+label; got != want {
			t.Errorf("lockstep counter for %v = %q, want %q", c, got, want)
		}
		if got, want := obs.CategoryLabel(uint64(c)), label; got != want {
			t.Errorf("label of %v = %q, want %q", c, got, want)
		}
	}
}

// TestCallTable: the table is sorted by name, which is the PLT layout
// scenario images take from Names, and Lookup finds every row by its
// name with its prebuilt names. A name outside the table gets the
// conservative facts under its own name.
func TestCallTable(t *testing.T) {
	names := Names()
	if !slices.IsSorted(names) || len(names) != len(funcs) {
		t.Errorf("Names() = %v, want the %d rows sorted by name", names, len(funcs))
	}
	for i, name := range names {
		f := Lookup(name)
		if f != &funcs[i] || f.Name != name {
			t.Errorf("Lookup(%q) = row %q, want row %d", name, f.Name, i)
		}
		if f.CycleMetric != "libc.cycles."+name || f.Spans != obs.NewSpanNames(name) ||
			f.CategoryCycleMetric != "libc.cycles{category="+obs.CategoryLabel(uint64(f.Cat))+"}" {
			t.Errorf("%s: prebuilt names %q, %q, %v", name, f.CycleMetric, f.CategoryCycleMetric, f.Spans)
		}
		if f.Cat == CatLocal && !f.UserSpace {
			t.Errorf("%s: a local call must never reach the kernel", name)
		}
	}
	u := Lookup("dlopen")
	if u.Name != "dlopen" || u.Cat != CatRetOnly || u.Sync != SyncBarrier || u.Args != "" || u.Out.Size != 0 ||
		u.PtrRet || u.UserSpace || u.CPMon || u.Spans.Rendezvous != "rendezvous:dlopen" {
		t.Errorf("Lookup(\"dlopen\") = %+v, want a conservative row of its own", *u)
	}
	// A PLT layout's rows are the table's; a slot outside the layout, or
	// one whose row names another call, falls back to Lookup.
	rows := NewPLTRows([]string{"write", "read"})
	for _, c := range []struct {
		slot int
		name string
	}{{0, "write"}, {1, "read"}, {1, "write"}, {-1, "read"}, {2, "close"}} {
		if got := rows.Row(c.slot, c.name); got != Lookup(c.name) {
			t.Errorf("Row(%d, %q) = row %q, want Lookup's", c.slot, c.name, got.Name)
		}
	}
}

func TestUnknownLibcCrashes(t *testing.T) {
	r := newRig(t)
	th, _ := r.m.NewThread("t", 0)
	err := th.Run(func(t *machine.Thread) {
		r.l.Call(t, -1, "dlopen", nil)
	})
	if err == nil {
		t.Error("unknown libc function should crash")
	}
}

func TestHeapAccounting(t *testing.T) {
	r := newRig(t)
	_ = r.run(t, func(t *machine.Thread, args []uint64) uint64 {
		t.Libc("malloc", 100)
		t.Libc("malloc", 200)
		return 0
	})
	if got := r.l.HeapLiveBytes(0); got != 112+208 {
		t.Errorf("HeapLiveBytes = %d, want %d", got, 112+208)
	}
	if r.l.HeapWatermark(0) != heapBase+112+208 {
		t.Errorf("HeapWatermark = %s", r.l.HeapWatermark(0))
	}
	if r.l.HeapLiveBytes(12345) != 0 {
		t.Error("unknown bias heap should report 0")
	}
}

func TestResetCounts(t *testing.T) {
	r := newRig(t)
	_ = r.run(t, func(t *machine.Thread, args []uint64) uint64 {
		t.Libc("malloc", 8)
		return 0
	})
	r.l.ResetCounts()
	if r.l.TotalCalls() != 0 || r.l.CallCount("malloc") != 0 {
		t.Error("ResetCounts did not zero counters")
	}
}

// sinkRet keeps the compiler from discarding the benchmarked calls.
var sinkRet uint64

// BenchmarkLibcStrings dispatches the string calls each variant runs
// locally through LibC.Call, on strings as long as nginx's request lines.
func BenchmarkLibcStrings(b *testing.B) {
	r := newRig(b)
	th, err := r.m.NewThread("t", 0)
	if err != nil {
		b.Fatal(err)
	}
	g := th.Global("g_buf")
	th.WriteCString(g, "GET /index.html HTTP/1.1")
	th.WriteCString(g+64, "GET /index.html HTTP/1.0")
	th.WriteCString(g+128, "%s %s")
	out := uint64(g + 256)
	for _, c := range []struct {
		name string
		args []uint64
	}{
		{"strlen", []uint64{uint64(g)}},
		{"strcmp", []uint64{uint64(g), uint64(g + 64)}},
		{"strncmp", []uint64{uint64(g), uint64(g + 64), 8}},
		{"snprintf", []uint64{out, 128, uint64(g + 128), uint64(g), uint64(g + 64)}},
		{"memcpy", []uint64{out, uint64(g), 256}},
		{"memset", []uint64{out, 0x5a, 256}},
	} {
		slot, _ := r.img.PLTSlot(c.name)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRet = r.l.Call(th, slot, c.name, c.args)
			}
		})
	}
}
