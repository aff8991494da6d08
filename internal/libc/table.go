package libc

import "smvx/internal/obs"

// Func is one simulated libc call's row in the call table: every fact the
// monitor decides the call by, so a caller looks the name up once and
// passes the row along.
type Func struct {
	Name string
	// Cat is the call's Table 1 emulation category.
	Cat Category
	// Sync is the call's pipelined-lockstep sync class. Most rows follow
	// their category: CatLocal pipelines locally, CatRetBuf and CatSpecial
	// pipeline their results, CatRetOnly is a barrier. A row that departs
	// from its category says why.
	Sync SyncClass
	// Args spells the argument positions the rendezvous compares across
	// the variants (Section 3.3): 's' a scalar, '-' a pointer, whose value
	// legitimately differs between the variants' windows. Positions past
	// its end are not compared.
	Args string
	// PtrRet marks a call that returns a pointer into the calling
	// variant's own window, so its value differs between variants.
	PtrRet bool
	// Out is the output buffer result emulation copies to each follower;
	// a zero Size means the emulation copies no buffer.
	Out Out
	// UserSpace marks a call that never reaches the kernel, so a
	// syscall-granularity monitor never sees it.
	UserSpace bool
	// CPMon marks the security-sensitive system calls ReMon routes through
	// its ptrace-based cross-process monitor (Section 2.1, footnote 1): at
	// syscall granularity their rendezvous costs a ptrace stop.
	CPMon bool

	// CycleMetric and CategoryCycleMetric are the histograms an
	// instrumented call observes, and Spans its lockstep span names: built
	// once, so the enabled hot path concatenates nothing.
	CycleMetric, CategoryCycleMetric string
	Spans                            obs.SpanNames

	id int // index into funcs, the slot of LibC's call counter; -1 outside the table
}

// Scalar reports whether argument i is compared across the variants.
func (f *Func) Scalar(i int) bool { return i < len(f.Args) && f.Args[i] == 's' }

// Out is an emulated call's output buffer: the argument that points at it,
// its size, and how the copy sizes and rewrites it (Table 1, Section 3.3).
type Out struct {
	Arg  int
	Size int
	Kind OutKind
}

// OutKind says how an output buffer is sized and what the copy checks or
// rewrites on the way.
type OutKind uint8

const (
	OutFixed     OutKind = iota // Size bytes
	OutRet                      // Size bytes per unit the call returned
	OutEvents                   // OutRet over epoll_events, each leader-space epoll_data rebased
	OutLeaderPtr                // Size bytes, only through a pointer into the leader's space
)

// epollEventSize is sizeof(struct epoll_event): 8 bytes of events, then
// the 8-byte epoll_data.
const epollEventSize = 16

// funcs is the call table, sorted by name. Two of Table 1's argument-buffer
// calls copy no buffer: the simulated apps leave accept4's peer address
// unused, and the simulated sendfile writes no offset back.
var funcs = [...]Func{
	{Name: "accept4", Cat: CatRetBuf, Sync: SyncPipelined, Args: "s--s"},
	{Name: "atoi", Cat: CatLocal, Sync: SyncLocal, Args: "--", UserSpace: true},
	{Name: "bind", Cat: CatRetOnly, Sync: SyncBarrier, Args: "ss", CPMon: true},
	{Name: "calloc", Cat: CatLocal, Sync: SyncLocal, Args: "ss", PtrRet: true, UserSpace: true},
	{Name: "close", Cat: CatRetOnly, Sync: SyncBarrier, Args: "s"},
	{Name: "connect", Cat: CatRetOnly, Sync: SyncBarrier, Args: "ss"},
	{Name: "epoll_create", Cat: CatRetOnly, Sync: SyncBarrier, Args: "--"},
	{Name: "epoll_ctl", Cat: CatRetOnly, Sync: SyncBarrier, Args: "sss-"},
	// epoll waits only report readiness; the epoll_data rebase is part of
	// the buffer snapshot, so they pipeline like other input calls.
	{Name: "epoll_pwait", Cat: CatSpecial, Sync: SyncPipelined, Args: "s-sss", Out: Out{1, epollEventSize, OutEvents}},
	{Name: "epoll_wait", Cat: CatSpecial, Sync: SyncPipelined, Args: "s-ss", Out: Out{1, epollEventSize, OutEvents}},
	{Name: "free", Cat: CatLocal, Sync: SyncLocal, Args: "--", UserSpace: true},
	{Name: "fstat", Cat: CatRetBuf, Sync: SyncPipelined, Args: "s-", Out: Out{1, 24, OutFixed}},
	{Name: "getsockopt", Cat: CatRetBuf, Sync: SyncPipelined, Args: "ss-", Out: Out{2, 8, OutFixed}},
	{Name: "gettimeofday", Cat: CatRetBuf, Sync: SyncPipelined, Args: "-s", Out: Out{0, 16, OutFixed}},
	// ioctl is special-emulation but configures kernel objects: a barrier.
	{Name: "ioctl", Cat: CatSpecial, Sync: SyncBarrier, Args: "ss-", Out: Out{2, 8, OutLeaderPtr}},
	{Name: "listen", Cat: CatRetOnly, Sync: SyncBarrier, Args: "ss", CPMon: true},
	{Name: "localtime_r", Cat: CatRetBuf, Sync: SyncPipelined, Args: "--", PtrRet: true, Out: Out{1, 64, OutFixed}, UserSpace: true},
	{Name: "malloc", Cat: CatLocal, Sync: SyncLocal, Args: "s", PtrRet: true, UserSpace: true},
	{Name: "memcpy", Cat: CatLocal, Sync: SyncLocal, Args: "--s", PtrRet: true, UserSpace: true},
	{Name: "memset", Cat: CatLocal, Sync: SyncLocal, Args: "--s", PtrRet: true, UserSpace: true},
	{Name: "mkdir", Cat: CatRetOnly, Sync: SyncBarrier, Args: "-s", CPMon: true},
	{Name: "open", Cat: CatRetOnly, Sync: SyncBarrier, Args: "-s", CPMon: true},
	// random and time return scalars read from the kernel without changing
	// observable state: safe to pipeline despite CatRetOnly.
	{Name: "random", Cat: CatRetOnly, Sync: SyncPipelined, Args: "--"},
	{Name: "read", Cat: CatRetBuf, Sync: SyncPipelined, Args: "s-s", Out: Out{1, 1, OutRet}},
	{Name: "realloc", Cat: CatLocal, Sync: SyncLocal, Args: "-s", PtrRet: true, UserSpace: true},
	{Name: "recv", Cat: CatRetBuf, Sync: SyncPipelined, Args: "s-s", Out: Out{1, 1, OutRet}},
	{Name: "send", Cat: CatRetOnly, Sync: SyncBarrier, Args: "s-s"},
	// sendfile emulates a buffer but pushes bytes onto a socket: externally
	// visible, so it must not run ahead of verification.
	{Name: "sendfile", Cat: CatRetBuf, Sync: SyncBarrier, Args: "ss-s"},
	{Name: "setsockopt", Cat: CatRetOnly, Sync: SyncBarrier, Args: "sss", CPMon: true},
	{Name: "shutdown", Cat: CatRetOnly, Sync: SyncBarrier, Args: "ss", CPMon: true},
	{Name: "snprintf", Cat: CatLocal, Sync: SyncLocal, Args: "-s-", UserSpace: true},
	{Name: "socket", Cat: CatRetOnly, Sync: SyncBarrier, Args: "--"},
	{Name: "stat", Cat: CatRetBuf, Sync: SyncPipelined, Args: "--", Out: Out{1, 24, OutFixed}},
	{Name: "strcmp", Cat: CatLocal, Sync: SyncLocal, Args: "--", UserSpace: true},
	{Name: "strlen", Cat: CatLocal, Sync: SyncLocal, Args: "--", UserSpace: true},
	{Name: "strncmp", Cat: CatLocal, Sync: SyncLocal, Args: "--s", UserSpace: true},
	{Name: "time", Cat: CatRetOnly, Sync: SyncPipelined, Args: "--", Out: Out{0, 8, OutFixed}},
	{Name: "write", Cat: CatRetOnly, Sync: SyncBarrier, Args: "s-s"},
	{Name: "writev", Cat: CatRetOnly, Sync: SyncBarrier, Args: "s-s"},
}

// index is the one name index into funcs, behind Lookup.
var index = func() map[string]*Func {
	m := make(map[string]*Func, len(funcs))
	for i := range funcs {
		f := &funcs[i]
		f.id = i
		f.buildNames()
		m[f.Name] = f
	}
	return m
}()

func (f *Func) buildNames() {
	f.CycleMetric = "libc.cycles." + f.Name
	f.CategoryCycleMetric = "libc.cycles{category=" + obs.CategoryLabel(uint64(f.Cat)) + "}"
	f.Spans = obs.NewSpanNames(f.Name)
}

// Lookup returns the row of the libc call name. A name outside the table
// gets a row of its own with the conservative facts: leader-only
// execution (CatRetOnly) behind a barrier, no argument compared and no
// buffer copied. Dispatching it crashes the thread.
func Lookup(name string) *Func {
	if f, ok := index[name]; ok {
		return f
	}
	f := &Func{Name: name, Cat: CatRetOnly, Sync: SyncBarrier, id: -1}
	f.buildNames()
	return f
}

// PLTRows is an image's PLT layout resolved to call-table rows, one per
// slot, so that a call through slot i finds its row by index.
type PLTRows []*Func

// NewPLTRows looks up the row of each PLT slot's name (an image's
// PLTSlots), once.
func NewPLTRows(names []string) PLTRows {
	rows := make(PLTRows, len(names))
	for i, name := range names {
		rows[i] = Lookup(name)
	}
	return rows
}

// Row returns the row of the call name made through PLT slot slot. A slot
// outside the layout, or one whose row names another call, falls back to
// Lookup.
func (r PLTRows) Row(slot int, name string) *Func {
	if slot >= 0 && slot < len(r) && r[slot].Name == name {
		return r[slot]
	}
	return Lookup(name)
}

// CategoryOf returns the emulation category of a libc call name.
func CategoryOf(name string) Category { return Lookup(name).Cat }

// SyncClassOf returns the pipelined-lockstep sync class of a libc call
// name.
func SyncClassOf(name string) SyncClass { return Lookup(name).Sync }

// Names returns every simulated libc call name, sorted by name: the rows
// of Table 1, and the PLT layout scenario images take.
func Names() []string {
	out := make([]string, len(funcs))
	for i := range funcs {
		out[i] = funcs[i].Name
	}
	return out
}
