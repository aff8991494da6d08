// Package ledger is the rendezvous cost ledger: per-call accounting that
// decomposes every protected-region libc call into phases — trampoline
// entry, argument marshal, ring enqueue, lockstep wait, decode+compare,
// result emulation, ring drain, barrier fallback, libc dispatch — each
// accumulating virtual cycles, heap allocations, and byte volume,
// aggregated per region, per phase, per sync class, and per variant.
//
// PR 5 cut the mean rendezvous cost from 2186 to 735 cycles/call; the
// ledger says where the remaining cycles go, which is what makes later
// hot-path work accountable to a number (ROADMAP item 4). The design
// follows the flight recorder's discipline exactly:
//
//   - a nil *Ledger (and the nil *Region it hands out) is the disabled
//     state: every method is a no-op that performs no allocation;
//   - the enabled hot path is allocation-free: cells are fixed atomic
//     counters indexed by pre-declared enums, and phase/class label
//     strings are interned at package init;
//   - allocation counts come from an optional probe (test/bench mode
//     only) so production instrumentation never touches runtime.MemStats;
//   - Add only updates cells; with a recorder attached, Flush mirrors each
//     cell that moved since the region's previous flush as one
//     EvLedgerCell event. The monitor flushes a region at its mvx_end and
//     the run flushes every region before it seals the WAL, and TapEvent
//     folds each cell back through Add's own cell update: replay
//     re-derives the ledger byte-identically from a sealed WAL, at a cost
//     of a few dozen events per region instead of one per charge. A WAL
//     cut off by a host crash lacks the regions still in flight.
package ledger

import (
	"encoding/json"
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"smvx/internal/obs"
	"smvx/internal/sim/clock"
)

// Phase is one slice of a protected-region libc call's cost.
type Phase uint8

// Phases, in hot-path order.
const (
	// PhaseTrampoline is the interception cost: PKRU dance plus the
	// safe-stack pivot.
	PhaseTrampoline Phase = iota
	// PhaseMarshal is argument/result encoding into the cross-variant wire
	// format.
	PhaseMarshal
	// PhaseRendezvous is the strict-lockstep rendezvous entry cost.
	PhaseRendezvous
	// PhaseEnqueue is the pipelined leader's ring-append cost.
	PhaseEnqueue
	// PhaseWait is time spent blocked on the other variant (strict pairing
	// wait, ring backpressure, barrier drain, follower dequeue wait).
	PhaseWait
	// PhaseCompare is wire decode plus divergence verification.
	PhaseCompare
	// PhaseEmulate is the Table 1 leader→follower result copy.
	PhaseEmulate
	// PhaseDrain is the pipelined follower's fixed drain cost per record.
	PhaseDrain
	// PhaseBarrier is the ring-draining hard-barrier rendezvous cost.
	PhaseBarrier
	// PhaseLibc is the underlying libc dispatch itself (leader executes,
	// or either variant for local calls).
	PhaseLibc
	// PhaseSnapshot is one copy-on-write variant checkpoint captured at a
	// quiescent rendezvous (PolicyRollback survivability).
	PhaseSnapshot
	// PhaseRestore is one rollback recovery: the checkpoint restore. It
	// copies no emulation bytes, so its byte column reads 0.
	PhaseRestore

	// NumPhases sizes per-phase arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"trampoline", "marshal", "rendezvous", "enqueue", "wait",
	"compare", "emulate", "drain", "barrier", "libc",
	"snapshot", "restore",
}

// String names the phase.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Class is a libc call's sync class, mirroring libc.SyncClass by code
// (0=unknown, 1=local, 2=pipelined, 3=barrier) so the ledger can be
// rebuilt from persisted events without consulting the libc table: a
// call's class is Class(f.Sync) of its row f.
type Class uint8

// Classes.
const (
	ClassUnknown Class = iota
	ClassLocal
	ClassPipelined
	ClassBarrier

	// NumClasses sizes per-class arrays.
	NumClasses
)

var classNames = [NumClasses]string{"unknown", "local", "pipelined", "barrier"}

// String names the class.
func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return "unknown"
}

// phaseClassNames interns every "phase/class" label pair at init so the
// enabled hot path records events without concatenating strings.
var phaseClassNames = func() (out [NumPhases][NumClasses]string) {
	for p := Phase(0); p < NumPhases; p++ {
		for c := Class(0); c < NumClasses; c++ {
			out[p][c] = phaseNames[p] + "/" + classNames[c]
		}
	}
	return
}()

// PhaseClassName returns the interned "phase/class" label a cell is
// recorded under (the EvLedgerCell event Name).
func PhaseClassName(p Phase, c Class) string {
	if p >= NumPhases {
		p = 0
	}
	if c >= NumClasses {
		c = ClassUnknown
	}
	return phaseClassNames[p][c]
}

// parsePhaseClass inverts PhaseClassName — TapEvent's decoder.
func parsePhaseClass(name string) (Phase, Class, bool) {
	i := strings.IndexByte(name, '/')
	if i < 0 {
		return 0, 0, false
	}
	p, c := name[:i], name[i+1:]
	for pi, pn := range phaseNames {
		if pn != p {
			continue
		}
		for ci, cn := range classNames {
			if cn == c {
				return Phase(pi), Class(ci), true
			}
		}
	}
	return 0, 0, false
}

// Mark is an allocation-probe reading taken at a phase's start. The zero
// Mark means "no measurement": Add then records zero allocations rather
// than a bogus delta against zero.
type Mark struct {
	v  uint64
	ok bool
}

// cell accumulates one (phase, class, variant) bucket.
type cell struct {
	count  atomic.Uint64
	cycles atomic.Uint64
	allocs atomic.Uint64
	bytes  atomic.Uint64
}

// flushedCell is what one cell read at its region's previous flush.
type flushedCell struct {
	count, cycles, bytes uint64
}

// Region is one protected function's ledger. The monitor holds one per
// session; instrumentation sites hold the pointer and call Add with no
// map lookups on the hot path. A nil Region is the disabled state.
type Region struct {
	led   *Ledger
	name  string
	cells [NumPhases][NumClasses][obs.MaxVariants]cell // indexed by variant

	// flushMu serializes Flush, the only reader and writer of flushed.
	flushMu sync.Mutex
	flushed [NumPhases][NumClasses][obs.MaxVariants]flushedCell
}

// Ledger aggregates Regions and carries the run configuration the
// exported snapshot is labeled with. A nil Ledger is the disabled state.
type Ledger struct {
	mu      sync.Mutex
	regions map[string]*Region
	mode    string
	policy  string
	lag     int

	// probe and rec are set before the run starts and read without
	// locking on the hot path.
	probe func() uint64
	rec   *obs.Recorder
}

// New creates an enabled, empty ledger.
func New() *Ledger {
	return &Ledger{regions: make(map[string]*Region)}
}

// SetRun labels the ledger with the run configuration (lockstep mode,
// divergence policy, lag window) so snapshots are self-describing.
func (l *Ledger) SetRun(mode, policy string, lag int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.mode, l.policy, l.lag = mode, policy, lag
	l.mu.Unlock()
}

// SetRecorder makes Flush mirror the ledger's cells into rec as
// EvLedgerCell events — the hook that makes the ledger re-derivable from
// the black-box WAL. Set it before the run starts. The mirror carries
// counts, cycles and bytes, not the allocation probe's column: no run
// mirrors a ledger with the probe on (the CLI never enables the probe, and
// the experiments' scenario cells never mirror).
func (l *Ledger) SetRecorder(rec *obs.Recorder) {
	if l == nil {
		return
	}
	l.rec = rec
}

// EnableAllocProbe turns on heap-allocation accounting using the runtime
// /gc/heap/allocs:objects counter. The counter is process-global, so
// concurrent non-ledger goroutines add noise — this is a test/bench-mode
// hook, not a production default. Call before the run starts. The
// allocation column stays live-only: Flush does not mirror it, so a
// ledger rebuilt from the WAL reads 0 allocations.
func (l *Ledger) EnableAllocProbe() {
	if l == nil {
		return
	}
	var mu sync.Mutex
	sample := make([]rtmetrics.Sample, 1)
	sample[0].Name = "/gc/heap/allocs:objects"
	l.probe = func() uint64 {
		mu.Lock()
		rtmetrics.Read(sample)
		v := sample[0].Value.Uint64()
		mu.Unlock()
		return v
	}
}

// Region returns (creating if needed) the ledger region for the protected
// function fn. Called at session setup, not on the hot path. Nil-safe:
// a nil Ledger returns a nil Region whose methods are no-ops.
func (l *Ledger) Region(fn string) *Region {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rg := l.regions[fn]
	if rg == nil {
		rg = &Region{led: l, name: fn}
		l.regions[fn] = rg
	}
	return rg
}

// Mark samples the allocation probe at a phase's start. Nil-safe and free
// (no clock read, no allocation) when the probe is disabled.
func (rg *Region) Mark() Mark {
	if rg == nil || rg.led.probe == nil {
		return Mark{}
	}
	return Mark{v: rg.led.probe(), ok: true}
}

// Add charges one phase occurrence to the region: cycles on the virtual
// clock, the allocation delta since m (when the probe is on), and bytes
// of payload moved. It only updates the cell, recorder or not: Flush
// mirrors it. Nil-safe; the enabled path is allocation-free.
func (rg *Region) Add(p Phase, v obs.Variant, c Class, cycles clock.Cycles, m Mark, bytes uint64) {
	if rg == nil {
		return
	}
	if p >= NumPhases {
		p = 0
	}
	if c >= NumClasses {
		c = ClassUnknown
	}
	var allocs uint64
	if m.ok {
		if cur := rg.led.probe(); cur > m.v {
			allocs = cur - m.v
		}
	}
	rg.charge(p, v, c, 1, uint64(cycles), allocs, bytes)
}

// charge is the one mutation of a region's cells, shared by the live Add
// (count 1) and the replay fold TapEvent (a flushed cell's count).
func (rg *Region) charge(p Phase, v obs.Variant, c Class, count, cycles, allocs, bytes uint64) {
	if v >= obs.VariantNone {
		// An event with no variant (monitor bookkeeping) is charged to
		// the leader.
		v = obs.VariantLeader
	}
	cl := &rg.cells[p][c][v]
	cl.count.Add(count)
	cl.cycles.Add(cycles)
	cl.allocs.Add(allocs)
	cl.bytes.Add(bytes)
}

// Flush records one EvLedgerCell event for each cell whose count, cycles
// or bytes moved since the region's previous flush, carrying the
// movement. It is the ledger's one recording site. A charge that races a
// flush may land its count in one flush and its cycles in the next, so a
// flushed cell can read count 0; the sums stay exact. Nil-safe, a no-op
// without a recorder, and allocation-free.
func (rg *Region) Flush() {
	if rg == nil || rg.led.rec == nil {
		return
	}
	rec := rg.led.rec
	rg.flushMu.Lock()
	defer rg.flushMu.Unlock()
	for p := range rg.cells {
		for c := range rg.cells[p] {
			for vi := range rg.cells[p][c] {
				cl, last := &rg.cells[p][c][vi], &rg.flushed[p][c][vi]
				cur := flushedCell{count: cl.count.Load(), cycles: cl.cycles.Load(), bytes: cl.bytes.Load()}
				if cur == *last {
					continue
				}
				rec.RecordIn(rg.name, obs.EvLedgerCell, obs.Variant(vi), 0, phaseClassNames[p][c],
					cur.cycles-last.cycles, cur.count-last.count, cur.bytes-last.bytes)
				*last = cur
			}
		}
	}
}

// Flush flushes every region, in name order — the end-of-run flush that
// also reaches a region whose leader never got to its mvx_end (a
// kill-both leader that crashed mid-region). Nil-safe.
func (l *Ledger) Flush() {
	if l == nil {
		return
	}
	for _, rg := range l.sortedRegions() {
		rg.Flush()
	}
}

// sortedRegions returns the ledger's regions sorted by name.
func (l *Ledger) sortedRegions() []*Region {
	l.mu.Lock()
	regions := make([]*Region, 0, len(l.regions))
	for _, rg := range l.regions {
		regions = append(regions, rg)
	}
	l.mu.Unlock()
	sort.Slice(regions, func(i, j int) bool { return regions[i].name < regions[j].name })
	return regions
}

// TapEvent is the ledger's obs.Tap fold. An EvLedgerCell event (Fn =
// region, Name = "phase/class", Arg0/Arg1/Ret = cycles/charges/bytes)
// charges its cell with the flushed movement; a version-1 WAL's EvLedger
// event (Arg1 = allocations) charges it as the one Add that recorded it.
// Other events are ignored.
func (l *Ledger) TapEvent(e obs.Event) {
	if l == nil {
		return
	}
	var count, allocs uint64
	switch e.Kind {
	case obs.EvLedgerCell:
		count = e.Arg1
	case obs.EvLedger:
		count, allocs = 1, e.Arg1
	default:
		return
	}
	p, c, ok := parsePhaseClass(e.Name)
	if !ok {
		return
	}
	l.Region(e.Fn).charge(p, e.Variant, c, count, e.Arg0, allocs, e.Ret)
}

var variantNames = func() (out [obs.MaxVariants]string) {
	for vi := range out {
		out[vi] = obs.Variant(vi).String()
	}
	return
}()

// Cell is one non-zero (phase, class, variant) bucket in a snapshot.
type Cell struct {
	Phase   string `json:"phase"`
	Class   string `json:"class"`
	Variant string `json:"variant"`
	Count   uint64 `json:"count"`
	Cycles  uint64 `json:"cycles"`
	Allocs  uint64 `json:"allocs"`
	Bytes   uint64 `json:"bytes"`
}

// RegionSnapshot is one region's non-zero cells, in enum order.
type RegionSnapshot struct {
	Region string `json:"region"`
	Cells  []Cell `json:"cells"`
}

// Snapshot is a deterministic point-in-time copy of the whole ledger.
type Snapshot struct {
	Mode      string           `json:"lockstep_mode"`
	Policy    string           `json:"policy"`
	LagWindow int              `json:"lag_window"`
	Regions   []RegionSnapshot `json:"regions"`
}

// Snapshot copies the ledger: regions sorted by name, cells in
// (phase, class, variant) enum order, zero cells omitted.
func (l *Ledger) Snapshot() Snapshot {
	if l == nil {
		return Snapshot{}
	}
	l.mu.Lock()
	snap := Snapshot{Mode: l.mode, Policy: l.policy, LagWindow: l.lag}
	l.mu.Unlock()
	for _, rg := range l.sortedRegions() {
		rs := RegionSnapshot{Region: rg.name}
		for p := Phase(0); p < NumPhases; p++ {
			for c := Class(0); c < NumClasses; c++ {
				for vi := 0; vi < obs.MaxVariants; vi++ {
					cl := &rg.cells[p][c][vi]
					count := cl.count.Load()
					cyc := cl.cycles.Load()
					al := cl.allocs.Load()
					by := cl.bytes.Load()
					if count == 0 && cyc == 0 && al == 0 && by == 0 {
						continue
					}
					rs.Cells = append(rs.Cells, Cell{
						Phase:   p.String(),
						Class:   c.String(),
						Variant: variantNames[vi],
						Count:   count,
						Cycles:  cyc,
						Allocs:  al,
						Bytes:   by,
					})
				}
			}
		}
		snap.Regions = append(snap.Regions, rs)
	}
	return snap
}

// LeaderSyncCycles sums the leader-side synchronization phases —
// rendezvous, enqueue, barrier, wait — across all regions and classes.
// This is the total the rendezvous.leader.cycles histogram accumulates,
// so the two must reconcile (the acceptance bound is 2%).
func (l *Ledger) LeaderSyncCycles() uint64 {
	if l == nil {
		return 0
	}
	var sum uint64
	for _, rg := range l.sortedRegions() {
		for _, p := range [...]Phase{PhaseRendezvous, PhaseEnqueue, PhaseBarrier, PhaseWait} {
			for c := Class(0); c < NumClasses; c++ {
				sum += rg.cells[p][c][0].cycles.Load()
			}
		}
	}
	return sum
}

// Totals sums the ledger: calls is the libc-phase occurrence count across
// both variants, cycles and allocs the grand totals of every cell.
func (l *Ledger) Totals() (calls, cycles, allocs uint64) {
	if l == nil {
		return 0, 0, 0
	}
	for _, rg := range l.sortedRegions() {
		for p := Phase(0); p < NumPhases; p++ {
			for c := Class(0); c < NumClasses; c++ {
				for vi := 0; vi < obs.MaxVariants; vi++ {
					cl := &rg.cells[p][c][vi]
					cycles += cl.cycles.Load()
					allocs += cl.allocs.Load()
					if p == PhaseLibc {
						calls += cl.count.Load()
					}
				}
			}
		}
	}
	return calls, cycles, allocs
}

// WriteJSON writes the snapshot as deterministic indented JSON — the
// /ledger endpoint body and the replay-parity comparison format.
func (l *Ledger) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l.Snapshot())
}

// PublishTo exports every non-zero cell into m as labeled gauges —
// ledger.cycles/ledger.calls/ledger.allocs/ledger.bytes{region=,phase=,
// class=,variant=} — the series the Prometheus exporter serves as
// smvx_ledger_*. Scrape-time only; not part of the hot path.
func (l *Ledger) PublishTo(m *obs.Metrics) {
	if l == nil || m == nil {
		return
	}
	snap := l.Snapshot()
	for _, rs := range snap.Regions {
		for _, cl := range rs.Cells {
			labels := "{class=" + cl.Class + ",phase=" + cl.Phase +
				",region=" + rs.Region + ",variant=" + cl.Variant + "}"
			m.SetGauge("ledger.calls"+labels, float64(cl.Count))
			m.SetGauge("ledger.cycles"+labels, float64(cl.Cycles))
			m.SetGauge("ledger.allocs"+labels, float64(cl.Allocs))
			m.SetGauge("ledger.bytes"+labels, float64(cl.Bytes))
		}
	}
}

// TableText renders the snapshot as the forensics-style phase-breakdown
// table.
func (l *Ledger) TableText() string {
	snap := l.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "rendezvous cost ledger (mode=%s policy=%s lag=%d)\n",
		orUnset(snap.Mode), orUnset(snap.Policy), snap.LagWindow)
	b.WriteString("region                 phase       class      variant        calls       cycles   cyc/call  allocs        bytes\n")
	for _, rs := range snap.Regions {
		for _, cl := range rs.Cells {
			per := float64(0)
			if cl.Count > 0 {
				per = float64(cl.Cycles) / float64(cl.Count)
			}
			fmt.Fprintf(&b, "%-22s %-11s %-10s %-10s %10d %12d %10.1f %7d %12d\n",
				rs.Region, cl.Phase, cl.Class, cl.Variant,
				cl.Count, cl.Cycles, per, cl.Allocs, cl.Bytes)
		}
	}
	return b.String()
}

func orUnset(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
