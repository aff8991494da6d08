// Package faultinject is the deterministic chaos harness for the sMVX
// monitor: seed-driven fault plans injected at the machine's libc choke
// point, used to prove the divergence-response policies contain what the
// paper's kill-both monitor merely reports. Faults target the follower
// variant only (the leader is the availability story the policies defend)
// and fire at exact follower libc-call ordinals — at most once each by
// default, or on a fixed cadence with the repeat-every modifier (the
// continuous-attack shape the survival benchmark drives) — so every
// (fault, policy) outcome is reproducible from its plan alone.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"smvx/internal/core"
	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/machine"
)

// Kind classifies an injected fault.
type Kind int

const (
	// FollowerCrash crashes the follower thread at the chosen call — the
	// simulated analogue of a variant segfaulting mid-region.
	FollowerCrash Kind = iota + 1
	// ArgFlip XORs one bit into the first scalar argument of the chosen
	// call, driving an AlarmArgMismatch at the rendezvous.
	ArgFlip
	// IPCTruncate drops the last argument of the chosen call's IPC record,
	// a short write on the shared-memory ring (length mismatch at the
	// rendezvous).
	IPCTruncate
	// FollowerStall charges StallCycles of busy-work before the chosen
	// call, blowing the rendezvous deadline.
	FollowerStall
	// EmulBufCorrupt rewrites the output-buffer pointer of the first call,
	// at or after the chosen ordinal, that receives an emulated output
	// buffer (its libc row's Out) through a non-null pointer. The pointer then
	// names an unmapped address, so the emulation copy into it faults
	// (AlarmEmulationFault).
	EmulBufCorrupt
)

// String names the kind as spelled in chaos specs.
func (k Kind) String() string {
	switch k {
	case FollowerCrash:
		return "follower-crash"
	case ArgFlip:
		return "arg-flip"
	case IPCTruncate:
		return "ipc-truncate"
	case FollowerStall:
		return "stall"
	case EmulBufCorrupt:
		return "emu-corrupt"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// kindNames maps spec spellings back to kinds.
var kindNames = map[string]Kind{
	"follower-crash": FollowerCrash,
	"arg-flip":       ArgFlip,
	"ipc-truncate":   IPCTruncate,
	"stall":          FollowerStall,
	"emu-corrupt":    EmulBufCorrupt,
}

// ErrInjected marks a crash manufactured by the harness, so forensics can
// tell injected faults from organic ones.
var ErrInjected = errors.New("faultinject: injected fault")

// StallCycles is the busy-work a FollowerStall charges (~30ms at the
// simulated 2.1GHz — far past any sane rendezvous deadline).
const StallCycles clock.Cycles = 64_000_000

// stallChunk keeps stall charging sampler-friendly.
const stallChunk clock.Cycles = 10_000

// CorruptAddr is the unmapped address EmulBufCorrupt points buffers at.
const CorruptAddr uint64 = 0x6f6f_0000_0000

// Fault is one planned fault.
type Fault struct {
	Kind Kind
	// Call is the 1-based follower libc-call ordinal the fault fires at
	// (EmulBufCorrupt: the first call with an emulated output buffer at or
	// after it).
	Call uint64
	// Bit selects the flipped bit for ArgFlip (mod 64).
	Bit uint
	// Every, when non-zero, repeats the fault at every Every-th follower
	// call from Call onward (calls Call, Call+Every, Call+2*Every, ...) —
	// a continuous attack instead of a single shot.
	Every uint64
	// Variant selects which follower slot the fault targets (1-based; 0
	// normalizes to 1, the first follower — the only slot that exists in
	// the pair configuration). Call ordinals are counted per variant, so
	// "arg-flip@4:variant:2" fires at the second follower's fourth call.
	Variant int
}

// Plan is an installed set of faults. Install it once per machine; the
// follower-call counter persists across regions and restarts, so a fired
// fault stays fired.
type Plan struct {
	seed   int64
	faults []Fault
	rec    *obs.Recorder

	calls  atomic.Uint64
	vcalls [core.MaxVariants]atomic.Uint64
	fired  []atomic.Bool
}

// New builds a plan from explicit faults. A fault's zero Variant is
// normalized to 1 (the first follower slot).
func New(seed int64, faults ...Fault) *Plan {
	fs := append([]Fault(nil), faults...)
	for i := range fs {
		if fs[i].Variant == 0 {
			fs[i].Variant = 1
		}
	}
	return &Plan{
		seed:   seed,
		faults: fs,
		fired:  make([]atomic.Bool, len(fs)),
	}
}

// repeatEveryMod is the spec suffix that turns a single-shot fault into a
// repeating one.
const repeatEveryMod = ":repeat-every:"

// variantMod is the spec suffix that aims a fault at a specific follower
// slot of an N-variant set.
const variantMod = ":variant:"

// Parse builds a plan from a -chaos spec: comma-separated
// "kind[@call][:bit][:variant:K][:repeat-every:N]" entries, e.g.
// "follower-crash@12,arg-flip@7:3,stall@5", the continuous
// "arg-flip@4:repeat-every:6", or the slot-addressed
// "arg-flip@4:variant:2" (call ordinals count per variant; without the
// modifier the first follower is targeted). An entry without @call gets a
// seed-derived ordinal in [1,8], which is what makes a bare
// "follower-crash" spec deterministic per seed.
func Parse(spec string, seed int64) (*Plan, error) {
	rng := rand.New(rand.NewSource(seed))
	var faults []Fault
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		f := Fault{Call: uint64(1 + rng.Intn(8))}
		body := entry
		if i := strings.Index(body, repeatEveryMod); i >= 0 {
			every, err := strconv.ParseUint(body[i+len(repeatEveryMod):], 10, 32)
			if err != nil || every == 0 {
				return nil, fmt.Errorf("faultinject: bad repeat-every period in %q", entry)
			}
			f.Every = every
			body = body[:i]
		}
		if i := strings.Index(body, variantMod); i >= 0 {
			k, err := strconv.ParseUint(body[i+len(variantMod):], 10, 8)
			if err != nil || k == 0 || k >= core.MaxVariants {
				return nil, fmt.Errorf("faultinject: bad variant slot in %q (want 1..%d)", entry, core.MaxVariants-1)
			}
			f.Variant = int(k)
			body = body[:i]
		}
		if i := strings.IndexByte(body, ':'); i >= 0 {
			bit, err := strconv.ParseUint(body[i+1:], 10, 8)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad bit in %q: %v", entry, err)
			}
			f.Bit = uint(bit)
			body = body[:i]
		}
		if i := strings.IndexByte(body, '@'); i >= 0 {
			call, err := strconv.ParseUint(body[i+1:], 10, 32)
			if err != nil || call == 0 {
				return nil, fmt.Errorf("faultinject: bad call ordinal in %q", entry)
			}
			f.Call = call
			body = body[:i]
		}
		kind, ok := kindNames[body]
		if !ok {
			names := make([]string, 0, len(kindNames))
			for n := range kindNames {
				names = append(names, n)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("faultinject: unknown fault %q (want %s)", body, strings.Join(names, ", "))
		}
		f.Kind = kind
		faults = append(faults, f)
	}
	if len(faults) == 0 {
		return nil, errors.New("faultinject: empty chaos spec")
	}
	return New(seed, faults...), nil
}

// Faults returns the planned faults.
func (p *Plan) Faults() []Fault { return append([]Fault(nil), p.faults...) }

// FiredCount reports how many planned faults have fired.
func (p *Plan) FiredCount() int {
	n := 0
	for i := range p.fired {
		if p.fired[i].Load() {
			n++
		}
	}
	return n
}

// FollowerCalls returns the follower libc calls seen so far.
func (p *Plan) FollowerCalls() uint64 { return p.calls.Load() }

// Install hooks the plan into the machine's libc choke point and wires the
// flight recorder (nil is fine) for EvFaultInjected events.
func (p *Plan) Install(m *machine.Machine, rec *obs.Recorder) {
	p.rec = rec
	m.SetLibcFaultHook(p.hook)
}

// hook runs on every PLT libc call of every thread; only follower threads
// are counted and faulted. Each thread carries its slot in the variant
// set, so per-variant ordinals stay stable however the scheduler
// interleaves followers, and whatever window shift the monitor chose.
func (p *Plan) hook(t *machine.Thread, name string, args []uint64) []uint64 {
	k := t.Variant()
	if k == 0 {
		return args
	}
	p.calls.Add(1)
	n := p.vcalls[k].Add(1)
	for i := range p.faults {
		f := p.faults[i]
		if f.Variant != k {
			continue
		}
		if !p.triggers(f, n, name, args) {
			continue
		}
		if f.Every == 0 {
			// Single shot: exactly one winner claims the slot.
			if p.fired[i].Load() || !p.fired[i].CompareAndSwap(false, true) {
				continue
			}
		} else {
			// Repeating: fired only records that the plan went live.
			p.fired[i].Store(true)
		}
		p.record(t, f, n, name)
		args = p.apply(t, f, n, name, args)
	}
	return args
}

// triggers decides whether fault f fires at follower call n to name.
func (p *Plan) triggers(f Fault, n uint64, name string, args []uint64) bool {
	if f.Every > 0 {
		if n < f.Call || (n-f.Call)%f.Every != 0 {
			return false
		}
		// A repeating EmulBufCorrupt still only bites emulated buffers.
		return f.Kind != EmulBufCorrupt || emulatedBuf(name, args)
	}
	if f.Kind == EmulBufCorrupt {
		return n >= f.Call && emulatedBuf(name, args)
	}
	return n == f.Call
}

// emulatedBuf reports whether the call receives an emulated output buffer
// through a non-null pointer: a buffer the monitor copies into.
func emulatedBuf(name string, args []uint64) bool {
	o := libc.Lookup(name).Out
	return o.Size != 0 && o.Arg < len(args) && args[o.Arg] != 0
}

// record surfaces the firing to the flight recorder and metrics.
func (p *Plan) record(t *machine.Thread, f Fault, n uint64, name string) {
	p.rec.Record(obs.EvFaultInjected, obs.Variant(f.Variant), t.TID(),
		f.Kind.String()+":"+name, n, uint64(f.Bit), 0)
	p.rec.Metrics().Inc("faultinject.fired")
	p.rec.Metrics().Inc("faultinject." + obs.SanitizeName(f.Kind.String()))
}

// apply performs the fault. FollowerCrash panics (the machine's crash
// unwinding turns it into a follower fault); the rest return mutated args.
func (p *Plan) apply(t *machine.Thread, f Fault, n uint64, name string, args []uint64) []uint64 {
	switch f.Kind {
	case FollowerCrash:
		panic(&machine.Crash{
			Thread: t.Name(), IP: t.IP(),
			Err: fmt.Errorf("%w: follower crash at libc call %d (%s)", ErrInjected, n, name),
		})
	case FollowerStall:
		for left := StallCycles; left > 0; {
			c := stallChunk
			if c > left {
				c = left
			}
			t.ChargeUser(c)
			left -= c
		}
		return args
	case ArgFlip:
		row := libc.Lookup(name)
		out := append([]uint64(nil), args...)
		for i := range out {
			if row.Scalar(i) {
				out[i] ^= 1 << (f.Bit % 64)
				return out
			}
		}
		if len(out) > 0 {
			out[0] ^= 1 << (f.Bit % 64)
		}
		return out
	case IPCTruncate:
		if len(args) == 0 {
			return args
		}
		return append([]uint64(nil), args[:len(args)-1]...)
	case EmulBufCorrupt:
		out := append([]uint64(nil), args...)
		if o := libc.Lookup(name).Out; o.Size != 0 && o.Arg < len(out) {
			out[o.Arg] = CorruptAddr
		}
		return out
	default:
		return args
	}
}
