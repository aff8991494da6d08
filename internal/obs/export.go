package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"smvx/internal/sim/clock"
)

// chromeEvent is one entry of the Chrome trace_event JSON array
// (chrome://tracing, Perfetto's legacy loader).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`            // microseconds
	Dur  *float64          `json:"dur,omitempty"` // microseconds, complete (X) events only
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
	S    string            `json:"s,omitempty"` // instant scope
}

// WriteChromeTrace renders the buffered events in Chrome trace_event JSON
// ("traceEvents" array). Libc enter/exit pairs become duration (B/E)
// events, a span becomes one complete (X) event that starts its duration
// before its end; everything else becomes an instant event. Timestamps are
// virtual-clock microseconds.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTraceEvents(w, r.Events())
}

// WriteChromeTraceEvents renders an event snapshot in Chrome trace_event
// JSON — the same rendering WriteChromeTrace performs on the live ring,
// exposed over plain data so the offline replayer can regenerate a
// byte-identical trace from a black-box WAL.
func WriteChromeTraceEvents(w io.Writer, events []Event) error {
	out := make([]chromeEvent, 0, len(events)+2)
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Kind.String(),
			TS:   e.TS.Micros(),
			PID:  1,
			TID:  e.TID,
		}
		switch e.Kind {
		case EvLibcEnter:
			ce.Ph = "B"
			ce.Cat = "libc:" + e.Variant.String()
			ce.Args = map[string]string{
				"arg0": fmt.Sprintf("0x%x", e.Arg0),
				"arg1": fmt.Sprintf("0x%x", e.Arg1),
			}
		case EvLibcExit:
			ce.Ph = "E"
			ce.Cat = "libc:" + e.Variant.String()
			ce.Args = map[string]string{"ret": fmt.Sprintf("0x%x", e.Ret)}
		case EvRegionStart:
			ce.Ph = "B"
			ce.Cat = "region"
		case EvRegionEnd:
			ce.Ph = "E"
			ce.Cat = "region"
		case EvSpanBegin:
			ce.Ph = "B"
			ce.Cat = "span:" + e.Variant.String()
		case EvSpanEnd:
			ce.Ph = "E"
			ce.Cat = "span:" + e.Variant.String()
			ce.Args = map[string]string{"cycles": fmt.Sprintf("%d", e.Arg0)}
		case EvSpan:
			d := clock.Cycles(e.Arg0)
			dur := d.Micros()
			ce.Ph = "X"
			ce.Cat = "span:" + e.Variant.String()
			ce.TS = (e.TS - d).Micros()
			ce.Dur = &dur
			ce.Args = map[string]string{"cycles": fmt.Sprintf("%d", e.Arg0)}
		default:
			ce.Ph = "i"
			ce.S = "t"
			if ce.Name == "" {
				ce.Name = e.Kind.String()
			}
			ce.Args = map[string]string{
				"variant": e.Variant.String(),
				"arg0":    fmt.Sprintf("0x%x", e.Arg0),
			}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ns",
	})
}

// TableText renders the buffered events as a plain-text table, oldest
// first, with virtual-clock timestamps.
func (r *Recorder) TableText() string {
	return TableTextEvents(r.Events())
}

// TableTextEvents renders an event snapshot as the same plain-text table.
func TableTextEvents(events []Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-6s %-14s %-4s %-9s %s\n",
		"seq", "vseq", "cycles", "tid", "variant", "event")
	for _, e := range events {
		fmt.Fprintf(&b, "%-8d %-6d %-14d %-4d %-9s %s\n",
			e.Seq, e.VSeq, uint64(e.TS), e.TID, e.Variant, formatEventLine(e))
	}
	return b.String()
}
