package replay

import (
	"fmt"
	"strings"

	"smvx/internal/analysis"
	"smvx/internal/libc"
	"smvx/internal/obs"
)

// LibcCall is one libc call of one variant, reconstructed from the event
// stream: an EvLibcCall record, or in an older WAL a paired enter/exit.
// It is the unit of the offline trace diff: where Section 3.2 diffs
// basic-block logs, the replayer diffs libc-call logs — the granularity
// sMVX itself observes — and attributes each call to its simulated
// calling function.
type LibcCall struct {
	// Index is the call's position in its variant's call sequence.
	Index int
	// Variant is the side that issued the call.
	Variant obs.Variant
	// Fn is the simulated function the call was issued from (Event.Fn).
	Fn string
	// Name is the libc call name.
	Name string
	// Arg0, Arg1 are the recorded entry arguments.
	Arg0, Arg1 uint64
	// Ret is the recorded return value (valid when Completed).
	Ret uint64
	// Completed reports whether the call returned — false means it never
	// did (crash, abort, detach, or in an older WAL a truncated stream).
	Completed bool
}

// String renders the call compactly for diff output.
func (c LibcCall) String() string {
	ret := "?"
	if c.Completed {
		ret = fmt.Sprintf("0x%x", c.Ret)
	}
	fn := c.Fn
	if fn == "" {
		fn = "?"
	}
	return fmt.Sprintf("%s(0x%x, 0x%x) -> %s in %s", c.Name, c.Arg0, c.Arg1, ret, fn)
}

// callKey is the comparable identity the diff runs over. Timestamps,
// sequence numbers and TIDs are deliberately excluded: two identical
// executions interleave differently on the global clock, but each
// variant's own call sequence — names, arguments, return values, calling
// functions — is deterministic.
type callKey struct {
	Fn, Name   string
	Arg0, Arg1 uint64
	Ret        uint64
	Completed  bool
}

func (c LibcCall) key() callKey {
	return callKey{Fn: c.Fn, Name: c.Name, Arg0: c.Arg0, Arg1: c.Arg1, Ret: c.Ret, Completed: c.Completed}
}

// Calls reconstructs one variant's libc-call sequence from an event
// stream: one call per EvLibcCall, Completed unless it is marked
// unreturned. A WAL older than format version 4 pairs EvLibcEnter with
// the following EvLibcExit of the same thread; a call whose exit never
// arrived stays Completed=false.
func Calls(events []obs.Event, v obs.Variant) []LibcCall {
	var out []LibcCall
	pending := make(map[int]int) // tid -> index in out of the open call
	for _, e := range events {
		if e.Variant != v {
			continue
		}
		switch e.Kind {
		case obs.EvLibcCall:
			c := LibcCall{
				Index: len(out), Variant: v,
				Fn: e.Fn, Name: e.Name, Arg0: e.Arg0, Arg1: e.Arg1,
			}
			if e.Returned() {
				c.Ret, c.Completed = e.Ret, true
			}
			out = append(out, c)
		case obs.EvLibcEnter:
			pending[e.TID] = len(out)
			out = append(out, LibcCall{
				Index: len(out), Variant: v,
				Fn: e.Fn, Name: e.Name, Arg0: e.Arg0, Arg1: e.Arg1,
			})
		case obs.EvLibcExit:
			if i, ok := pending[e.TID]; ok {
				out[i].Ret = e.Ret
				out[i].Completed = true
				delete(pending, e.TID)
			}
		}
	}
	return out
}

// Calls returns one variant's libc-call sequence from the run's full
// event stream (not the ring view: the diff wants the whole history).
func (r *Replay) Calls(v obs.Variant) []LibcCall { return Calls(r.Run.Events, v) }

// CallDivergence describes where two libc-call sequences first part ways,
// with surrounding context from both sides.
type CallDivergence struct {
	// Index is the position of the first differing call.
	Index int
	// Kind distinguishes a call-record mismatch from one sequence being a
	// strict prefix of the other (analysis.DivMismatch / DivPrefix).
	Kind analysis.DivergenceKind
	// A and B are the diverging calls (nil on the side whose sequence
	// ended, when Kind is DivPrefix).
	A, B *LibcCall
	// ContextA and ContextB are the calls leading up to and including the
	// divergence on each side, oldest first.
	ContextA, ContextB []LibcCall
}

// Function returns the simulated function the divergence is attributed
// to: the calling function of the first divergent call — the libc-call
// analogue of Section 3.2's "functions containing the first divergent
// basic block".
func (d CallDivergence) Function() string {
	if d.A != nil && d.A.Fn != "" {
		return d.A.Fn
	}
	if d.B != nil {
		return d.B.Fn
	}
	return ""
}

// DefaultDiffContext is how many calls of leading context a divergence
// report includes from each side.
const DefaultDiffContext = 5

// DiffCalls locates the first divergence between two call sequences,
// carrying up to context preceding calls per side (<=0 uses
// DefaultDiffContext). ok is false when the sequences are identical.
func DiffCalls(a, b []LibcCall, context int) (CallDivergence, bool) {
	return diffCallsKeyed(a, b, context, LibcCall.key)
}

// diffCallsKeyed is DiffCalls with a pluggable call identity: the cross-run
// diff compares calls verbatim, the cross-variant diff compares them under
// the rendezvous check's pointer semantics.
func diffCallsKeyed(a, b []LibcCall, context int, key func(LibcCall) callKey) (CallDivergence, bool) {
	if context <= 0 {
		context = DefaultDiffContext
	}
	ka := make([]callKey, len(a))
	for i, c := range a {
		ka[i] = key(c)
	}
	kb := make([]callKey, len(b))
	for i, c := range b {
		kb[i] = key(c)
	}
	idx, kind, ok := analysis.Diff(ka, kb)
	if !ok {
		return CallDivergence{}, false
	}
	d := CallDivergence{Index: idx, Kind: kind}
	if idx < len(a) {
		c := a[idx]
		d.A = &c
	}
	if idx < len(b) {
		c := b[idx]
		d.B = &c
	}
	d.ContextA = window(a, idx, context)
	d.ContextB = window(b, idx, context)
	return d, true
}

// window returns trace[idx-context .. idx], clamped.
func window(trace []LibcCall, idx, context int) []LibcCall {
	if idx >= len(trace) {
		idx = len(trace) - 1
	}
	if idx < 0 {
		return nil
	}
	lo := idx - context
	if lo < 0 {
		lo = 0
	}
	return trace[lo : idx+1]
}

// DiffRuns diffs one variant's call sequence across two recorded runs —
// the cross-run mode: record a successful login and a failed login, diff
// the leader streams, and the first divergent call flags the
// authentication function.
func DiffRuns(a, b *Replay, v obs.Variant, context int) (CallDivergence, bool) {
	return DiffCalls(a.Calls(v), b.Calls(v), context)
}

// VariantDivergence is where one follower's call stream first parts from
// the leader's.
type VariantDivergence struct {
	// Follower is the follower slot whose stream diverged.
	Follower obs.Variant
	CallDivergence
}

// DiffVariants diffs the leader stream of one run against each follower
// slot's — the intra-run mode: under attack, a follower's calls part from
// the leader's at the corrupted call, which is what the live monitor
// alarmed on. It returns one divergence per diverging follower, in slot
// order, and none when every follower matches the leader. The first
// follower is always compared, later slots when they made calls: a first
// follower with no calls shows up as the leader's calls outrunning it.
// Only calls made inside protected regions are compared: outside a
// region no follower exists, so the leader's setup calls (socket, bind,
// accept) would otherwise always "diverge" at call #0.
// Pointer values legitimately differ between the variants' disjoint
// address windows (each follower runs at a fixed offset from the leader),
// so — exactly like the live rendezvous check — only scalar argument
// positions and scalar return values participate in the comparison.
func (r *Replay) DiffVariants(context int) []VariantDivergence {
	ev := regionEvents(r.Run.Events)
	leader := Calls(ev, obs.VariantLeader)
	var out []VariantDivergence
	for v := obs.VariantFollower; v < obs.VariantNone; v++ {
		calls := Calls(ev, v)
		if len(calls) == 0 && v != obs.VariantFollower {
			continue
		}
		if d, ok := diffCallsKeyed(leader, calls, context, variantKey); ok {
			out = append(out, VariantDivergence{Follower: v, CallDivergence: d})
		}
	}
	return out
}

// variantKey is the leader-vs-follower call identity: pointer-position
// arguments and pointer returns, per the call's row in the libc call table
// the live monitor compares by, are zeroed out of the comparison.
func variantKey(c LibcCall) callKey {
	k := c.key()
	f := libc.Lookup(c.Name)
	if !f.Scalar(0) {
		k.Arg0 = 0
	}
	if !f.Scalar(1) {
		k.Arg1 = 0
	}
	if f.PtrRet {
		k.Ret = 0
	}
	return k
}

// regionEvents filters an event stream to the spans between EvRegionStart
// and EvRegionEnd. Region brackets are recorded by the leader, and the
// follower only runs while a region is live, so depth-tracking over
// global append order captures exactly the lockstep-checked calls.
func regionEvents(events []obs.Event) []obs.Event {
	var out []obs.Event
	depth := 0
	for _, e := range events {
		switch e.Kind {
		case obs.EvRegionStart:
			depth++
		case obs.EvRegionEnd:
			if depth > 0 {
				depth--
			}
		default:
			if depth > 0 {
				out = append(out, e)
			}
		}
	}
	return out
}

// Format renders the divergence with its context windows. aLabel and
// bLabel name the two sides ("success"/"fail", "leader"/"follower").
func (d CallDivergence) Format(aLabel, bLabel string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "first divergence at call #%d (%s)\n", d.Index, d.Kind)
	if fn := d.Function(); fn != "" {
		fmt.Fprintf(&b, "attributed function: %s\n", fn)
	}
	side := func(label string, c *LibcCall, ctx []LibcCall) {
		fmt.Fprintf(&b, "--- %s ---\n", label)
		if len(ctx) == 0 {
			fmt.Fprintf(&b, "  (sequence ended before call #%d)\n", d.Index)
			return
		}
		for _, cc := range ctx {
			marker := " "
			if c != nil && cc.Index == c.Index {
				marker = ">"
			}
			fmt.Fprintf(&b, " %s #%-4d %s\n", marker, cc.Index, cc)
		}
		if c == nil {
			fmt.Fprintf(&b, " > (sequence ended at call #%d)\n", d.Index)
		}
	}
	side(aLabel, d.A, d.ContextA)
	side(bLabel, d.B, d.ContextB)
	return b.String()
}
