package faultinject

import (
	"fmt"
	"strings"
	"testing"

	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/libc"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

func TestKindStringRoundTrip(t *testing.T) {
	for name, kind := range kindNames {
		if kind.String() != name {
			t.Errorf("%v.String() = %q, want %q", kind, kind.String(), name)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("out-of-range kind = %q", got)
	}
}

func TestParseSpec(t *testing.T) {
	p, err := Parse("follower-crash@12, arg-flip@7:3 ,stall@5", 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: FollowerCrash, Call: 12, Variant: 1},
		{Kind: ArgFlip, Call: 7, Bit: 3, Variant: 1},
		{Kind: FollowerStall, Call: 5, Variant: 1},
	}
	got := p.Faults()
	if len(got) != len(want) {
		t.Fatalf("faults = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseRepeatEvery(t *testing.T) {
	p, err := Parse("arg-flip@7:3:repeat-every:6,follower-crash@4:repeat-every:9", 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: ArgFlip, Call: 7, Bit: 3, Every: 6, Variant: 1},
		{Kind: FollowerCrash, Call: 4, Every: 9, Variant: 1},
	}
	got := p.Faults()
	if len(got) != len(want) {
		t.Fatalf("faults = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseSeedDerivedOrdinal(t *testing.T) {
	// No @call: the ordinal comes from the seed, deterministically.
	a, err := Parse("follower-crash", 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("follower-crash", 77)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := a.Faults()[0].Call, b.Faults()[0].Call
	if ca != cb {
		t.Errorf("same seed gave ordinals %d and %d", ca, cb)
	}
	if ca < 1 || ca > 8 {
		t.Errorf("ordinal %d outside [1,8]", ca)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec, wantSub string
	}{
		{"", "empty chaos spec"},
		{" , ", "empty chaos spec"},
		{"meteor-strike@3", "unknown fault"},
		{"follower-crash@0", "bad call ordinal"},
		{"follower-crash@x", "bad call ordinal"},
		{"arg-flip@3:boom", "bad bit"},
		{"arg-flip@3:repeat-every:0", "bad repeat-every period"},
		{"arg-flip@3:repeat-every:x", "bad repeat-every period"},
		{"arg-flip@3:variant:0", "bad variant slot"},
		{"arg-flip@3:variant:9", "bad variant slot"},
		{"arg-flip@3:variant:x", "bad variant slot"},
	}
	for _, c := range cases {
		if _, err := Parse(c.spec, 1); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) err = %v, want containing %q", c.spec, err, c.wantSub)
		}
	}
	// The unknown-fault error should teach the valid spellings.
	_, err := Parse("meteor-strike", 1)
	for name := range kindNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-fault error %q missing %q", err, name)
		}
	}
}

func TestParseVariantSelector(t *testing.T) {
	p, err := Parse("arg-flip@4:variant:2,follower-crash@2:variant:3,stall@5", 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: ArgFlip, Call: 4, Variant: 2},
		{Kind: FollowerCrash, Call: 2, Variant: 3},
		{Kind: FollowerStall, Call: 5, Variant: 1},
	}
	got := p.Faults()
	if len(got) != len(want) {
		t.Fatalf("faults = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// The selector composes with bit and repeat-every modifiers.
	p, err = Parse("arg-flip@7:3:variant:2:repeat-every:6", 1)
	if err != nil {
		t.Fatal(err)
	}
	if f := p.Faults()[0]; f != (Fault{Kind: ArgFlip, Call: 7, Bit: 3, Every: 6, Variant: 2}) {
		t.Errorf("composed spec parsed to %+v", f)
	}
}

func TestNewNormalizesVariant(t *testing.T) {
	p := New(1, Fault{Kind: ArgFlip, Call: 3}, Fault{Kind: ArgFlip, Call: 3, Variant: 2})
	if got := p.Faults(); got[0].Variant != 1 || got[1].Variant != 2 {
		t.Errorf("variants = %d, %d; want 1, 2", got[0].Variant, got[1].Variant)
	}
}

// TestVariantSlotUnderCustomDelta: a slot-addressed fault fires at its
// slot's own call ordinal whatever window shift the monitor uses, because
// the hook reads the thread's slot rather than its address bias. Under
// half the default delta, slot 2's window sits where the default puts
// slot 1.
func TestVariantSlotUnderCustomDelta(t *testing.T) {
	for _, delta := range []int64{core.FollowerDelta, core.FollowerDelta / 2} {
		alarms := chaosRegion(t, "arg-flip@3:variant:2", shutdowns, core.WithDelta(delta))
		if len(alarms) != 1 {
			t.Errorf("delta %#x: %d alarms, want one: %v", delta, len(alarms), alarms)
			continue
		}
		if a := alarms[0]; a.Reason != core.AlarmOutvoted || a.Variant != 2 || a.CallIndex != 3 {
			t.Errorf("delta %#x: alarm %s variant %d at call %d, want %s variant 2 at call 3",
				delta, a.Reason, a.Variant, a.CallIndex, core.AlarmOutvoted)
		}
	}
}

// TestArgFlipOnFDs: close's fd and accept4's fd are compared across the
// variants, so an arg-flip on either is a divergence: the lone follower's
// argument mismatch at N=2, and an outvoted follower at N=3.
func TestArgFlipOnFDs(t *testing.T) {
	for _, call := range []string{"close", "accept4"} {
		body := func(th *machine.Thread, _ mem.Addr) {
			for i := 0; i < 3; i++ {
				th.Libc(call, uint64(100+i)) // no such fds: each call fails with EBADF
			}
		}
		for _, c := range []struct {
			n    int
			want core.AlarmReason
		}{{2, core.AlarmArgMismatch}, {3, core.AlarmOutvoted}} {
			alarms := chaosRegion(t, "arg-flip@2", body, core.WithVariants(c.n))
			if len(alarms) != 1 {
				t.Errorf("%s at N=%d: %d alarms, want one: %v", call, c.n, len(alarms), alarms)
				continue
			}
			if a := alarms[0]; a.Reason != c.want || a.Variant != 1 || a.CallIndex != 2 {
				t.Errorf("%s at N=%d: alarm %s variant %d at call %d, want %s variant 1 at call 2",
					call, c.n, a.Reason, a.Variant, a.CallIndex, c.want)
			}
		}
	}
}

// shutdowns is a region body of six shutdown calls.
func shutdowns(th *machine.Thread, _ mem.Addr) {
	for i := 0; i < 6; i++ {
		th.Libc("shutdown", uint64(100+i), 2)
	}
}

// chaosRegion runs one protected region of body under an N=3,
// leader-continue monitor with the chaos spec installed, and returns the
// monitor's alarms. body gets the calling variant's own copy of the
// 4 KiB g_buf; the kernel's file system holds /f.
func chaosRegion(t *testing.T, spec string, body func(th *machine.Thread, g mem.Addr), opts ...core.Option) []core.Alarm {
	t.Helper()
	img := image.NewBuilder("chaosapp", 0x400000).
		AddFunc("main", 64).
		AddFunc("protected_func", 128).
		AddBSS("g_buf", 4096).
		NeedLibc(libc.Names()...).
		Build()
	prog := machine.NewProgram(img)
	k := kernel.New(clock.DefaultCosts(), 7)
	k.FS().WriteFile("/f", []byte("file bytes"))
	env, err := boot.NewEnv(k, prog, boot.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		body(th, th.Global("g_buf"))
		return 0
	})
	plan, err := Parse(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	plan.Install(env.Machine, nil)
	mon := core.New(env.Machine, env.LibC, append([]core.Option{core.WithSeed(7),
		core.WithVariants(3), core.WithPolicy(core.PolicyLeaderContinue)}, opts...)...)
	th, err := env.Machine.NewThread("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	err = th.Run(func(tt *machine.Thread) {
		if err := mon.Start(tt, "protected_func"); err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		tt.Call("protected_func")
		_ = mon.End(tt)
	})
	if err != nil {
		t.Fatal(err)
	}
	return mon.Alarms()
}

// fakeThread-free hook tests: trigger and apply logic that doesn't need a
// live machine thread.

func TestTriggers(t *testing.T) {
	p := New(1)
	if !p.triggers(Fault{Kind: ArgFlip, Call: 3}, 3, "write", nil) {
		t.Error("arg-flip did not trigger at its ordinal")
	}
	if p.triggers(Fault{Kind: ArgFlip, Call: 3}, 4, "write", nil) {
		t.Error("arg-flip triggered off-ordinal")
	}
	// EmulBufCorrupt waits for the first call at or after Call that
	// receives an emulated output buffer through a non-null pointer.
	f := Fault{Kind: EmulBufCorrupt, Call: 2}
	tv := []uint64{0x400800, 0}
	for _, c := range []struct {
		n    uint64
		name string
		args []uint64
		want bool
	}{
		{1, "gettimeofday", tv, false},     // before its ordinal
		{2, "close", []uint64{3}, false},   // nothing emulated
		{2, "accept4", []uint64{3}, false}, // a RetBuf call that copies no buffer
		{2, "sendfile", []uint64{4, 5, 0x400800, 9}, false},
		{2, "time", []uint64{0}, false},       // a null output pointer
		{2, "time", []uint64{0x400800}, true}, // a RetOnly call that writes one
		{5, "gettimeofday", tv, true},
		{5, "stat", []uint64{0x400800, 0x400900}, true},
	} {
		if got := p.triggers(f, c.n, c.name, c.args); got != c.want {
			t.Errorf("emu-corrupt@2 at call %d %s%#x = %v, want %v", c.n, c.name, c.args, got, c.want)
		}
	}
}

// TestTriggersRepeatEvery pins the repeating-fault ordinal arithmetic
// against the single-shot rule: a repeat-every:N fault fires exactly at
// Call, Call+N, Call+2N, ... and nowhere else.
func TestTriggersRepeatEvery(t *testing.T) {
	p := New(1)
	single := Fault{Kind: ArgFlip, Call: 4}
	repeat := Fault{Kind: ArgFlip, Call: 4, Every: 6}
	for n := uint64(1); n <= 40; n++ {
		wantRepeat := n >= 4 && (n-4)%6 == 0
		if got := p.triggers(repeat, n, "write", nil); got != wantRepeat {
			t.Errorf("repeat triggers at call %d = %v, want %v", n, got, wantRepeat)
		}
		// At the anchor ordinal the two rules agree; before it neither fires.
		if n <= 4 {
			if p.triggers(single, n, "write", nil) != p.triggers(repeat, n, "write", nil) {
				t.Errorf("single and repeat disagree at call %d", n)
			}
		}
	}
	// A repeating emu-corrupt keeps the emulated-buffer gate on top of the
	// cadence.
	ec := Fault{Kind: EmulBufCorrupt, Call: 2, Every: 3}
	tv := []uint64{0x400800, 0}
	if p.triggers(ec, 5, "close", []uint64{3}) {
		t.Error("repeating emu-corrupt fired on a call with no emulated buffer")
	}
	if !p.triggers(ec, 5, "gettimeofday", tv) {
		t.Error("repeating emu-corrupt missed an on-cadence emulated buffer")
	}
	if p.triggers(ec, 6, "gettimeofday", tv) {
		t.Error("repeating emu-corrupt fired off-cadence")
	}
}

func TestApplyArgFlip(t *testing.T) {
	p := New(1)
	// write(fd, buf, len): fd is scalar, buf is a pointer — the flip must
	// land on fd, not the pointer.
	if f := libc.Lookup("write"); !f.Scalar(0) || f.Scalar(1) {
		t.Fatalf("scalar mask for write = %q; test assumes (scalar, pointer, ...)", f.Args)
	}
	args := []uint64{3, 0x400500, 17}
	out := p.apply(nil, Fault{Kind: ArgFlip, Bit: 2}, 5, "write", args)
	if out[0] != 3^(1<<2) || out[1] != 0x400500 || out[2] != 17 {
		t.Errorf("arg-flip gave %#x", out)
	}
	if args[0] != 3 {
		t.Error("arg-flip mutated the caller's slice")
	}
}

func TestApplyIPCTruncate(t *testing.T) {
	p := New(1)
	out := p.apply(nil, Fault{Kind: IPCTruncate}, 5, "write", []uint64{3, 0x400500, 17})
	if len(out) != 2 {
		t.Errorf("truncate left %d args, want 2", len(out))
	}
	if got := p.apply(nil, Fault{Kind: IPCTruncate}, 5, "malloc", nil); len(got) != 0 {
		t.Errorf("truncate of empty args gave %v", got)
	}
}

// TestApplyEmulBufCorrupt: emu-corrupt rewrites exactly the argument the
// emulation copies into, not the first pointer: stat's path, localtime_r's
// input time and the epoll fd stay put.
func TestApplyEmulBufCorrupt(t *testing.T) {
	p := New(1)
	const b, c = 0x400800, CorruptAddr
	for _, tc := range []struct {
		name      string
		args, out []uint64
	}{
		{"gettimeofday", []uint64{b, 0}, []uint64{c, 0}},
		{"stat", []uint64{0x400100, b}, []uint64{0x400100, c}},
		{"localtime_r", []uint64{0x400100, b}, []uint64{0x400100, c}},
		{"getsockopt", []uint64{3, 7, b}, []uint64{3, 7, c}},
		{"epoll_wait", []uint64{5, b, 8, 0}, []uint64{5, c, 8, 0}},
		{"accept4", []uint64{3}, []uint64{3}},
	} {
		args := append([]uint64(nil), tc.args...)
		got := p.apply(nil, Fault{Kind: EmulBufCorrupt}, 1, tc.name, args)
		if fmt.Sprint(got) != fmt.Sprint(tc.out) {
			t.Errorf("%s%#x corrupted to %#x, want %#x", tc.name, tc.args, got, tc.out)
		}
		if fmt.Sprint(args) != fmt.Sprint(tc.args) {
			t.Errorf("%s: corrupt mutated the caller's slice", tc.name)
		}
	}
}

// TestEmuCorruptRaisesEmulationFault: emu-corrupt@1 on a region whose first
// call is stat or localtime_r raises AlarmEmulationFault at call 1 against
// the corrupted follower, as its doc promises, even though the call's
// first pointer argument is an input.
func TestEmuCorruptRaisesEmulationFault(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(th *machine.Thread, g mem.Addr)
	}{
		{"stat", func(th *machine.Thread, g mem.Addr) {
			th.WriteCString(g, "/f")
			th.Libc("stat", uint64(g), uint64(g+256))
		}},
		{"localtime_r", func(th *machine.Thread, g mem.Addr) {
			th.Store64(g, 86400)
			th.Libc("localtime_r", uint64(g), uint64(g+256))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alarms := chaosRegion(t, "emu-corrupt@1", tc.body)
			if len(alarms) != 1 {
				t.Fatalf("%d alarms, want one: %v", len(alarms), alarms)
			}
			if a := alarms[0]; a.Reason != core.AlarmEmulationFault || a.Variant != 1 || a.CallIndex != 1 ||
				!strings.Contains(a.Detail, mem.Addr(CorruptAddr).String()) {
				t.Errorf("alarm %s variant %d at call %d (%q), want %s variant 1 at call 1 naming %v",
					a.Reason, a.Variant, a.CallIndex, a.Detail, core.AlarmEmulationFault, mem.Addr(CorruptAddr))
			}
		})
	}
}

func TestFiredCountAndPlanState(t *testing.T) {
	p := New(9, Fault{Kind: ArgFlip, Call: 1}, Fault{Kind: IPCTruncate, Call: 3})
	if p.FiredCount() != 0 || p.FollowerCalls() != 0 {
		t.Fatal("fresh plan not zeroed")
	}
	p.fired[0].Store(true)
	if p.FiredCount() != 1 {
		t.Errorf("fired = %d, want 1", p.FiredCount())
	}
	// Faults() must be a copy the caller can't corrupt the plan through.
	p.Faults()[0].Call = 999
	if p.faults[0].Call != 1 {
		t.Error("Faults() exposed the plan's backing array")
	}
}
