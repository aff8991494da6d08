// Package perfprof is the simulation's equivalent of `perf` plus a flame
// graph: it attributes CPU cycles to functions, inclusive of callees, so
// the evaluation can ask "what fraction of total cycles does the outermost
// tainted function consume?" — the measurement behind the paper's CPU-
// cycles-saved experiment (Section 4.1: ngx_http_process_request_line at
// 60.8%, server_main_loop at 70%).
package perfprof

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"smvx/internal/obs"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/machine"
)

// Sample is one function's aggregate in the profile.
type Sample struct {
	// Fn is the function name.
	Fn string
	// Inclusive is the cycles spent in the function and its callees,
	// counting only outermost occurrences (recursion is not double
	// counted).
	Inclusive clock.Cycles
	// Calls is the number of outermost invocations.
	Calls uint64
}

// Profiler collects per-function inclusive cycles. Install it with
// machine.SetProfiler; it is safe for concurrent threads.
type Profiler struct {
	mu     sync.Mutex
	stacks map[int][]string
	incl   map[string]clock.Cycles
	calls  map[string]uint64
}

var _ machine.Profiler = (*Profiler)(nil)

// New creates an empty profiler.
func New() *Profiler {
	return &Profiler{
		stacks: make(map[int][]string),
		incl:   make(map[string]clock.Cycles),
		calls:  make(map[string]uint64),
	}
}

// OnEnter implements machine.Profiler.
func (p *Profiler) OnEnter(tid int, fn string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stacks[tid] = append(p.stacks[tid], fn)
}

// OnExit implements machine.Profiler.
func (p *Profiler) OnExit(tid int, fn string, inclusive clock.Cycles) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stacks[tid]
	if len(st) == 0 {
		return
	}
	p.stacks[tid] = st[:len(st)-1]
	// Attribute only the outermost occurrence so recursive or repeated
	// frames don't double count.
	for _, f := range p.stacks[tid] {
		if f == fn {
			return
		}
	}
	p.incl[fn] += inclusive
	p.calls[fn]++
}

// Inclusive returns fn's inclusive cycles.
func (p *Profiler) Inclusive(fn string) clock.Cycles {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.incl[fn]
}

// Calls returns fn's outermost call count.
func (p *Profiler) Calls(fn string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls[fn]
}

// Percent returns fn's share of total cycles, as the flame graph shows it.
func (p *Profiler) Percent(fn string, total clock.Cycles) float64 {
	if total == 0 {
		return 0
	}
	return float64(p.Inclusive(fn)) / float64(total) * 100
}

// Report returns all samples sorted by inclusive cycles, descending.
func (p *Profiler) Report() []Sample {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Sample, 0, len(p.incl))
	for fn, c := range p.incl {
		out = append(out, Sample{Fn: fn, Inclusive: c, Calls: p.calls[fn]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Inclusive != out[j].Inclusive {
			return out[i].Inclusive > out[j].Inclusive
		}
		return out[i].Fn < out[j].Fn
	})
	return out
}

// FlameText renders a textual flame-graph summary: each function's share of
// total, widest first.
func (p *Profiler) FlameText(total clock.Cycles) string {
	var b strings.Builder
	b.WriteString("flame graph (inclusive cycles, % of total)\n")
	for _, s := range p.Report() {
		pct := 0.0
		if total > 0 {
			pct = float64(s.Inclusive) / float64(total) * 100
		}
		bar := int(pct / 2)
		if bar > 50 {
			bar = 50
		}
		fmt.Fprintf(&b, "%-40s %8.1f%% |%s\n", s.Fn, pct, strings.Repeat("#", bar))
	}
	return b.String()
}

// FromTrace builds a profiler from a flight-recorder event stream: each
// libc call becomes one sample attributed to the call name, with its
// duration as its inclusive cost. A call that never returned is a sample
// too, with the cycles it ran before it unwound, so it leaves nothing open
// on its thread. In a WAL older than format version 4 a sample is an
// enter/exit pair, the virtual-clock delta between the two events its
// cost, and an enter that never saw its exit stays open. The resulting
// profiler renders through Report/FlameText like a live one, so a flame
// summary is derivable from a saved trace alone.
func FromTrace(events []obs.Event) *Profiler {
	p := New()
	open := make(map[int][]obs.Event) // tid -> pending enter events
	for _, e := range events {
		switch e.Kind {
		case obs.EvLibcCall:
			p.OnEnter(e.TID, e.Name)
			p.OnExit(e.TID, e.Name, e.Dur)
		case obs.EvLibcEnter:
			open[e.TID] = append(open[e.TID], e)
			p.OnEnter(e.TID, e.Name)
		case obs.EvLibcExit:
			st := open[e.TID]
			if len(st) == 0 {
				// The matching enter was evicted from the ring; skip.
				continue
			}
			enter := st[len(st)-1]
			open[e.TID] = st[:len(st)-1]
			var d clock.Cycles
			if e.TS > enter.TS {
				d = e.TS - enter.TS
			}
			p.OnExit(e.TID, enter.Name, d)
		}
	}
	return p
}

// Reset clears all samples.
func (p *Profiler) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stacks = make(map[int][]string)
	p.incl = make(map[string]clock.Cycles)
	p.calls = make(map[string]uint64)
}
