package obs

import (
	"fmt"
	"strings"
)

// regNames follows the x86-64 pop-opcode numbering used by
// internal/sim/machine, so snapshots print in the familiar order.
var regNames = []string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

// ThreadSnapshot is one thread's architectural state at alarm time,
// captured by the monitor from internal/sim/machine. It is plain data so
// this package needs no dependency on the execution engine.
type ThreadSnapshot struct {
	// Role labels the snapshot ("leader", "follower").
	Role string
	// TID is the simulated thread id.
	TID int
	// IP and SP are the instruction and stack pointers.
	IP, SP uint64
	// Regs is the integer register file (regNames order).
	Regs []uint64
	// Stack holds the top-of-stack words at SP (lowest address first).
	Stack []uint64
	// CallStack is the simulated function call stack, outermost first.
	CallStack []string
}

// AlarmInfo is the divergence context the monitor hands the recorder when
// an alarm fires. The reason/detail strings come from core.Alarm; keeping
// them as strings avoids an obs→core dependency.
type AlarmInfo struct {
	// Reason names the divergence class.
	Reason string
	// CallIndex is the lockstep call index at detection.
	CallIndex uint64
	// Function is the protected root function of the active region.
	Function string
	// LeaderCall and FollowerCall name the libc calls involved.
	LeaderCall, FollowerCall string
	// Detail is the human-readable description.
	Detail string
	// Snapshots are the involved threads' states, captured only from
	// goroutines where the read is race-free.
	Snapshots []ThreadSnapshot
}

// Alarm records a divergence: it appends an EvAlarm event, bumps the
// per-reason alarm counter, and retains the alarm context for the
// forensics report. With a durable sink attached, the alarm context is
// spilled after its event and the sink is flushed — an alarm is the one
// moment the black box must be guaranteed on disk.
func (r *Recorder) Alarm(a AlarmInfo) {
	if r == nil {
		return
	}
	r.Record(EvAlarm, VariantNone, 0, a.Reason, a.CallIndex, 0, 0)
	r.metrics.Inc("alarm.total")
	r.metrics.Inc("alarm.reason." + sanitizeMetricName(a.Reason))
	r.mu.Lock()
	r.alarms = append(r.alarms, a)
	sink := r.sink
	if sink != nil {
		sink.SinkAlarm(a)
	}
	r.mu.Unlock()
	if sink != nil {
		sink.Flush() //nolint:errcheck // sink counts its own failures
	}
	// Feed the divergence-rate series after the recorder lock is released:
	// a firing detector records an EvAnomaly event back into this recorder,
	// which lands (in the ring, the WAL, and the incident tap) strictly
	// after the EvAlarm event that caused it.
	r.ObserveSeries(SeriesDivergence, 1)
}

// AlarmCount returns the number of alarms recorded.
func (r *Recorder) AlarmCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.alarms)
}

// ForensicReports assembles one flight-recorder report per recorded alarm.
//
// Reports are built on extraction, not at the alarm instant: while a region
// is live the two variants run concurrently and the *other* variant's
// position in its own event stream is racy. Once both variants have
// quiesced (region ended or variants dead — which is when a report is
// read), each variant's final events are a deterministic function of the
// seed, so the report is byte-identical across identical seeded runs.
// Raw cycle timestamps are deliberately omitted for the same reason: the
// virtual clock is shared between concurrently executing variants.
func (r *Recorder) ForensicReports() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	alarms := append([]AlarmInfo(nil), r.alarms...)
	events := r.ring.snapshot()
	window := r.window
	r.mu.Unlock()
	if len(alarms) == 0 {
		return nil
	}
	return BuildForensicReports(alarms, events, window)
}

// Alarms returns a copy of the recorded alarm contexts, in raise order.
func (r *Recorder) Alarms() []AlarmInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]AlarmInfo(nil), r.alarms...)
}

// BuildForensicReports renders one flight-recorder report per alarm from an
// event snapshot — the same rendering ForensicReports performs on the live
// ring, exposed over plain data so the offline replayer
// (internal/obs/replay) can reconstruct byte-identical reports from a
// black-box WAL. window <= 0 uses DefaultForensicWindow.
func BuildForensicReports(alarms []AlarmInfo, events []Event, window int) []string {
	if window <= 0 {
		window = DefaultForensicWindow
	}
	out := make([]string, 0, len(alarms))
	for i, a := range alarms {
		out = append(out, buildReport(i, a, events, window))
	}
	return out
}

// buildReport renders one alarm's flight-recorder report.
func buildReport(idx int, a AlarmInfo, events []Event, window int) string {
	var b strings.Builder
	b.WriteString("=== sMVX FLIGHT RECORDER ===\n")
	fmt.Fprintf(&b, "alarm #%d: %s\n", idx+1, a.Reason)
	fmt.Fprintf(&b, "call index: %d\n", a.CallIndex)
	if a.Function != "" {
		fmt.Fprintf(&b, "protected function: %s\n", a.Function)
	}
	if a.LeaderCall != "" || a.FollowerCall != "" {
		fmt.Fprintf(&b, "mismatching call records: leader=%s follower=%s\n",
			orDash(a.LeaderCall), orDash(a.FollowerCall))
	}
	fmt.Fprintf(&b, "detail: %s\n", a.Detail)

	// The leader's and the first follower's tails always print; a further
	// slot's prints when the ring holds any event of it, so a report at
	// N≥3 shows the slot that diverged, or that its events were evicted.
	var present [VariantNone]bool
	for _, e := range events {
		if e.Variant < VariantNone {
			present[e.Variant] = true
		}
	}
	for v := VariantLeader; v < VariantNone; v++ {
		if v > VariantFollower && !present[v] {
			continue
		}
		tail := variantTail(events, v, window)
		fmt.Fprintf(&b, "--- %s: final %d events ---\n", v, len(tail))
		for i, e := range tail {
			fmt.Fprintf(&b, "  [%s%+d] %s\n", v.short(), i-len(tail), formatEventLine(e))
		}
	}

	for _, s := range a.Snapshots {
		fmt.Fprintf(&b, "--- snapshot: %s (tid %d) ---\n", s.Role, s.TID)
		fmt.Fprintf(&b, "  ip=0x%x sp=0x%x\n", s.IP, s.SP)
		for i, v := range s.Regs {
			name := fmt.Sprintf("r%d", i)
			if i < len(regNames) {
				name = regNames[i]
			}
			fmt.Fprintf(&b, "  %-3s=0x%-16x", name, v)
			if i%4 == 3 {
				b.WriteByte('\n')
			}
		}
		if len(s.Regs)%4 != 0 {
			b.WriteByte('\n')
		}
		for i, w := range s.Stack {
			fmt.Fprintf(&b, "  stack[sp+%d]=0x%x\n", i*8, w)
		}
		if len(s.CallStack) > 0 {
			fmt.Fprintf(&b, "  call stack: %s\n", strings.Join(s.CallStack, " > "))
		}
	}
	b.WriteString("=== END FLIGHT RECORDER ===\n")
	return b.String()
}

// variantTail returns the last (up to) n events attributed to v, oldest
// first. Telemetry span events are excluded: their durations are global-
// clock differences taken while both variants run concurrently, which
// would break the report's byte-for-byte determinism guarantee (and they
// duplicate the libc/lockstep events already in the window). Cost-ledger
// events are excluded too: they are bookkeeping, not behaviour, and a
// region-end flush would fill the window with cells.
func variantTail(events []Event, v Variant, n int) []Event {
	tail := make([]Event, 0, n)
	for i := len(events) - 1; i >= 0 && len(tail) < n; i-- {
		switch events[i].Kind {
		case EvSpan, EvSpanBegin, EvSpanEnd, EvLedger, EvLedgerCell:
			continue
		}
		if events[i].Variant == v {
			tail = append(tail, events[i])
		}
	}
	// Reverse into chronological order.
	for i, j := 0, len(tail)-1; i < j; i, j = i+1, j-1 {
		tail[i], tail[j] = tail[j], tail[i]
	}
	return tail
}

// formatEventLine renders one event without its raw timestamp (see
// ForensicReports for why).
func formatEventLine(e Event) string {
	switch e.Kind {
	case EvLibcEnter:
		return fmt.Sprintf("%-12s %s(0x%x, 0x%x)", e.Kind, e.Name, e.Arg0, e.Arg1)
	case EvLibcExit:
		return fmt.Sprintf("%-12s %s -> 0x%x", e.Kind, e.Name, e.Ret)
	case EvLibcCall:
		line := fmt.Sprintf("%-12s %s(0x%x, 0x%x) -> 0x%x", e.Kind, e.Name, e.Arg0, e.Arg1, e.Ret)
		if !e.Returned() {
			line = fmt.Sprintf("%-12s %s(0x%x, 0x%x) unreturned", e.Kind, e.Name, e.Arg0, e.Arg1)
		}
		if e.Flags&FlagIntercepted != 0 {
			line += fmt.Sprintf(" pkru 0x%x -> 0x%x", uint32(e.PKRU), e.PKRU>>32)
			if e.SafeSP != 0 {
				line += fmt.Sprintf(" sp 0x%x -> 0x%x", e.SP, e.SafeSP)
			}
		}
		return line
	case EvLockstep:
		return fmt.Sprintf("%-12s %s category=%d", e.Kind, e.Name, e.Arg0)
	case EvEmulated:
		return fmt.Sprintf("%-12s %s copied=%d bytes", e.Kind, e.Name, e.Arg0)
	case EvPKRUWrite:
		return fmt.Sprintf("%-12s pkru=0x%x", e.Kind, e.Arg0)
	case EvStackPivot:
		return fmt.Sprintf("%-12s sp 0x%x -> 0x%x", e.Kind, e.Arg0, e.Arg1)
	case EvTrampoline:
		line := fmt.Sprintf("%-12s %s pkru 0x%x -> 0x%x", e.Kind, e.Name, uint32(e.Arg0), e.Arg0>>32)
		if e.Ret != 0 {
			line += fmt.Sprintf(" sp 0x%x -> 0x%x", e.Arg1, e.Ret)
		}
		return line
	case EvVariantPhase:
		return fmt.Sprintf("%-12s %s %d cycles", e.Kind, e.Name, e.Arg0)
	case EvPageFault:
		return fmt.Sprintf("%-12s %s at 0x%x", e.Kind, e.Name, e.Arg0)
	case EvSyscall:
		return fmt.Sprintf("%-12s %s pid=%d", e.Kind, e.Name, e.Arg0)
	case EvAlarm:
		return fmt.Sprintf("%-12s %s call#%d", e.Kind, e.Name, e.Arg0)
	case EvSpanBegin:
		return fmt.Sprintf("%-12s %s", e.Kind, e.Name)
	case EvSpanEnd, EvSpan:
		return fmt.Sprintf("%-12s %s %d cycles", e.Kind, e.Name, e.Arg0)
	case EvWatchdog:
		return fmt.Sprintf("%-12s %s", e.Kind, e.Name)
	case EvFaultInjected:
		return fmt.Sprintf("%-12s %s at call %d", e.Kind, e.Name, e.Arg0)
	case EvFollowerDetached:
		return fmt.Sprintf("%-12s %s after %d calls", e.Kind, e.Name, e.Arg0)
	case EvFollowerRestarted:
		return fmt.Sprintf("%-12s %s restart #%d", e.Kind, e.Name, e.Arg0)
	case EvAnomaly:
		return fmt.Sprintf("%-12s %s on %s value=%d score=%d.%02d", e.Kind, e.Name, e.Fn, e.Arg0, e.Arg1/100, e.Arg1%100)
	default:
		return fmt.Sprintf("%-12s %s 0x%x 0x%x -> 0x%x", e.Kind, e.Name, e.Arg0, e.Arg1, e.Ret)
	}
}

// short is the per-variant index prefix used in report event lines: L for
// the leader, F for the first follower and F2 … F8 for the further slots.
func (v Variant) short() string {
	switch {
	case v == VariantLeader:
		return "L"
	case v == VariantFollower:
		return "F"
	case v < VariantNone:
		return "F" + string(rune('0'+int(v)))
	default:
		return "?"
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// SanitizeName turns a free-form string into a metric-name component:
// lowercase letters and digits pass through, everything else becomes '_'.
func SanitizeName(s string) string { return sanitizeMetricName(s) }

// sanitizeMetricName turns a free-form reason string into a metric name
// component.
func sanitizeMetricName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, s)
}
