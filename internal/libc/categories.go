package libc

// Category classifies a libc call by what the sMVX monitor must do to run
// it under lockstep — Table 1 of the paper, plus the user-space-only
// category the paper lets each variant execute independently (e.g. the
// follower may malloc freely after creation, Section 3.4).
type Category int

// Emulation categories.
const (
	// CatRetOnly: the leader executes the call; the follower receives the
	// return value and errno, nothing else ("return value emulation").
	CatRetOnly Category = iota + 1
	// CatRetBuf: the call writes through pointer arguments, so the leader's
	// output buffers are copied to the follower over the IPC ring
	// ("return value and argument buffer emulation").
	CatRetBuf
	// CatSpecial: emulation depends on runtime values — ioctl's
	// request-specific third argument and epoll's epoll_data union, which
	// must be treated as a buffer only when it falls inside the process's
	// address space ("special emulation").
	CatSpecial
	// CatLocal: pure user-space calls (allocator, string/memory functions)
	// that each variant executes against its own address range. They still
	// pass through the trampoline and the lockstep name check, but nothing
	// is copied.
	CatLocal
)

// String names the category as in Table 1.
func (c Category) String() string {
	switch c {
	case CatRetOnly:
		return "return-value emulation"
	case CatRetBuf:
		return "return-value and argument-buffer emulation"
	case CatSpecial:
		return "special emulation"
	case CatLocal:
		return "local execution"
	default:
		return "unknown"
	}
}
