package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"
	"testing"

	"smvx/internal/boot"
	"smvx/internal/libc"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// emuWindow is how many bytes of g_buf each emulation case compares: every
// output in the table fits, and the rest must stay as the clone left it.
const emuWindow = 256

// emuFixture holds the kernel objects the emulation cases call into, all
// opened by the leader's process before the region starts.
type emuFixture struct {
	file   int // /f, opened for reading
	conn   int // an accepted connection with bytes waiting
	sock   int // a socket with option 7 set
	epfd   int // an epoll instance watching two ready files
	h1, h2 mem.Addr
}

// emuCases calls each entry of the emulation table with its output buffer
// at g; scratch is a second buffer for inputs (stat's path, localtime_r's
// time), written by each variant in its own window.
var emuCases = map[string]func(th *machine.Thread, fx *emuFixture, g, scratch mem.Addr) uint64{
	"read": func(th *machine.Thread, fx *emuFixture, g, _ mem.Addr) uint64 {
		return th.Libc("read", uint64(fx.file), uint64(g), 48)
	},
	"recv": func(th *machine.Thread, fx *emuFixture, g, _ mem.Addr) uint64 {
		return th.Libc("recv", uint64(fx.conn), uint64(g), 64)
	},
	"stat": func(th *machine.Thread, _ *emuFixture, g, scratch mem.Addr) uint64 {
		th.WriteCString(scratch, "/f")
		return th.Libc("stat", uint64(scratch), uint64(g))
	},
	"fstat": func(th *machine.Thread, fx *emuFixture, g, _ mem.Addr) uint64 {
		return th.Libc("fstat", uint64(fx.file), uint64(g))
	},
	"gettimeofday": func(th *machine.Thread, _ *emuFixture, g, _ mem.Addr) uint64 {
		return th.Libc("gettimeofday", uint64(g), 0)
	},
	"time": func(th *machine.Thread, _ *emuFixture, g, _ mem.Addr) uint64 {
		return th.Libc("time", uint64(g))
	},
	"localtime_r": func(th *machine.Thread, _ *emuFixture, g, scratch mem.Addr) uint64 {
		th.Store64(scratch, 1_700_000_000)
		return th.Libc("localtime_r", uint64(scratch), uint64(g))
	},
	"getsockopt": func(th *machine.Thread, fx *emuFixture, g, _ mem.Addr) uint64 {
		return th.Libc("getsockopt", uint64(fx.sock), 7, uint64(g))
	},
	"ioctl": func(th *machine.Thread, fx *emuFixture, g, _ mem.Addr) uint64 {
		return th.Libc("ioctl", uint64(fx.conn), 0x541B /* FIONREAD */, uint64(g))
	},
	"epoll_wait": func(th *machine.Thread, fx *emuFixture, g, _ mem.Addr) uint64 {
		return th.Libc("epoll_wait", uint64(fx.epfd), uint64(g), 8, 0)
	},
	"epoll_pwait": func(th *machine.Thread, fx *emuFixture, g, _ mem.Addr) uint64 {
		return th.Libc("epoll_pwait", uint64(fx.epfd), uint64(g), 8, 0, 0)
	},
}

// emuSetup opens the fixture's kernel objects in env's process. The two
// epoll_data values are leader heap pointers, so the emulation must rebase
// them into each follower's window.
func emuSetup(t *testing.T, env *boot.Env, h1, h2 mem.Addr) *emuFixture {
	t.Helper()
	p := env.Proc
	fx := &emuFixture{h1: h1, h2: h2}
	env.Kernel.FS().WriteFile("/f", bytes.Repeat([]byte("emulated "), 8))
	env.Kernel.FS().WriteFile("/g", []byte("ready"))
	must := func(fd int, e kernel.Errno) int {
		t.Helper()
		if e != kernel.OK {
			t.Fatalf("fixture: errno %v", e)
		}
		return fd
	}
	fx.file = must(p.Open("/f", 0))
	lfd := must(p.Socket())
	must(0, p.Bind(lfd, 9191))
	must(0, p.Listen(lfd, 4))
	client := env.Kernel.NewProcess(clock.NewCounter())
	cfd := must(client.Socket())
	must(0, client.Connect(cfd, 9191))
	fx.conn = must(p.Accept4(lfd))
	must(client.Send(cfd, []byte("forty-two bytes the leader alone receives")))
	fx.sock = must(p.Socket())
	must(0, p.Setsockopt(fx.sock, 7, 0x1234_5678))
	fx.epfd = must(p.EpollCreate())
	must(0, p.EpollCtl(fx.epfd, kernel.EpollCtlAdd, fx.file, kernel.EpollIn, uint64(h1)))
	must(0, p.EpollCtl(fx.epfd, kernel.EpollCtlAdd, must(p.Open("/g", 0)), kernel.EpollIn, uint64(h2)))
	return fx
}

// TestEmulationCopiesEveryOutput runs every call of the emulation table in
// a region under strict and pipelined lockstep at N=3. After the call,
// every follower's buffer must equal the leader's: one capture-and-apply
// path whichever discipline carries the result. epoll_wait and
// epoll_pwait report two ready events whose epoll_data point into the
// leader's heap, and each follower must see them rebased into its own
// window.
func TestEmulationCopiesEveryOutput(t *testing.T) {
	var names []string
	for _, name := range libc.Names() {
		if libc.Lookup(name).Out.Size == 0 {
			continue
		}
		if emuCases[name] == nil {
			t.Errorf("%s: in the emulation table but not exercised here", name)
		}
		names = append(names, name)
	}
	for _, mode := range []LockstepMode{LockstepStrict, LockstepPipelined} {
		for _, name := range names {
			t.Run(mode.String()+"/"+name, func(t *testing.T) {
				testEmulatedCall(t, mode, name)
			})
		}
	}
}

func testEmulatedCall(t *testing.T, mode LockstepMode, name string) {
	env, _ := testApp(t)
	mon := New(env.Machine, env.LibC, WithSeed(11), WithVariants(3), WithLockstepMode(mode))
	var (
		mu   sync.Mutex
		got  [MaxVariants][]byte
		rets [MaxVariants]uint64
		fx   *emuFixture
	)
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		ret := emuCases[name](th, fx, g, g+emuWindow)
		buf := th.ReadBytes(g, emuWindow)
		mu.Lock()
		got[th.Variant()], rets[th.Variant()] = buf, ret
		mu.Unlock()
		return 0
	})
	th, err := env.MainThread()
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	if err := th.Run(func(tt *machine.Thread) {
		g := tt.Global("g_buf")
		tt.WriteBytes(g, bytes.Repeat([]byte{0xee}, emuWindow))
		h1 := mem.Addr(tt.Libc("malloc", 32))
		h2 := mem.Addr(tt.Libc("malloc", 32))
		fx = emuSetup(t, env, h1, h2)
		if err := mon.Start(tt, "protected_func"); err != nil {
			t.Fatalf("Start: %v", err)
		}
		tt.Call("protected_func")
		if err := mon.End(tt); err != nil {
			t.Fatalf("End: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if alarms := mon.Alarms(); len(alarms) != 0 {
		t.Fatalf("alarms: %v", alarms)
	}
	leader := got[0]
	f := libc.Lookup(name)
	out := f.Out
	n := out.Size
	if out.Kind == libc.OutRet || out.Kind == libc.OutEvents {
		n *= int(int64(rets[0]))
	}
	if n <= 0 || bytes.Equal(leader[:n], bytes.Repeat([]byte{0xee}, n)) {
		t.Fatalf("the leader's %s wrote nothing to compare (ret %d)", name, int64(rets[0]))
	}
	if out.Kind == libc.OutEvents {
		var data []mem.Addr
		for i := 0; i < n; i += out.Size {
			data = append(data, mem.Addr(binary.LittleEndian.Uint64(leader[i+8:])))
		}
		slices.Sort(data)
		if !slices.Equal(data, []mem.Addr{fx.h1, fx.h2}) {
			t.Fatalf("leader's epoll_data = %v, want the heap pointers %v and %v", data, fx.h1, fx.h2)
		}
	}
	for k := 1; k < mon.opts.Variants; k++ {
		want := slices.Clone(leader)
		if out.Kind == libc.OutEvents {
			for i := 0; i < n; i += out.Size {
				d := binary.LittleEndian.Uint64(want[i+8:])
				binary.LittleEndian.PutUint64(want[i+8:], uint64(int64(d)+int64(k)*mon.opts.Delta))
			}
		}
		if !bytes.Equal(got[k], want) {
			t.Errorf("follower %d's buffer after %s:\n got %x\nwant %x", k, name, got[k], want)
		}
		if !f.PtrRet && rets[k] != rets[0] {
			t.Errorf("follower %d's %s returned %d, the leader %d", k, name, rets[k], rets[0])
		}
	}
}
