package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"smvx/internal/cli"
	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/machine"
)

// layer names one boundary the traced run times.
type layer int

const (
	layerRequest layer = iota
	layerConnect
	layerInvoke
	layerLeader
	layerFollower
	layerPassthrough
	layerSink
	layerFlush
	layerTap
	layerSeries
	numLayers
)

var layerNames = [numLayers]string{
	"client.request", "kernel.client.connect", "core.invoke",
	"core.intercept.leader", "core.intercept.follower", "core.intercept.passthrough",
	"obs.sink", "obs.sink.flush", "obs.tap", "obs.series",
}

func (l layer) String() string { return layerNames[l] }

// short is the intercept kind a core.intercept layer times.
func (l layer) short() string { return layerNames[l][len("core.intercept."):] }

// span is one crossed boundary. Parent and Req are span ids; 0 is none.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLimit caps the spans kept for the trace file; the per-layer totals
// count every span regardless.
const spanLimit = 50_000

type layerStat struct{ n, ns atomic.Int64 }

// statValue is a point-in-time reading of one layer's totals.
type statValue struct{ n, ns int64 }

// tracer records one span per crossed boundary and totals each layer's
// count and host time. There is one client, so every server-side span
// belongs to the request in flight. A nil tracer records nothing.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// req is the span id of the request in flight and region that of the
	// open core.invoke span (0 outside a protected region).
	req, region atomic.Int64

	stats [numLayers]layerStat
	// leaderInRegion is the leader intercept time inside core.invoke
	// spans: the part of the region its child spans cover.
	leaderInRegion atomic.Int64
	leaderClass    [libc.SyncBarrier + 1]atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span: it returns the span's id and start time.
func (t *tracer) begin() (id, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.nextID.Add(1), t.now()
}

// beginRequest opens a client request span and makes it the parent of
// the server-side spans until the next one.
func (t *tracer) beginRequest() (id, start int64) {
	if t == nil {
		return 0, 0
	}
	id, start = t.begin()
	t.req.Store(id)
	return id, start
}

// parent is the span a server-side span hangs under: the open region, or
// else the request in flight.
func (t *tracer) parent() int64 {
	if r := t.region.Load(); r != 0 {
		return r
	}
	return t.req.Load()
}

// end closes a span, adds it to its layer's totals, and returns its
// duration in nanoseconds.
func (t *tracer) end(l layer, id, parent, start int64) int64 {
	if t == nil {
		return 0
	}
	end := t.now()
	d := end - start
	t.stats[l].n.Add(1)
	t.stats[l].ns.Add(d)
	t.mu.Lock()
	if len(t.spans) < spanLimit {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req.Load(), Name: l.String(), Start: start, End: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return d
}

func (t *tracer) stat(l layer) statValue {
	if t == nil {
		return statValue{}
	}
	return statValue{n: t.stats[l].n.Load(), ns: t.stats[l].ns.Load()}
}

func (t *tracer) leaderInRegionNs() int64 {
	if t == nil {
		return 0
	}
	return t.leaderInRegion.Load()
}

func (t *tracer) leaderClassNs(c libc.SyncClass) int64 {
	if t == nil {
		return 0
	}
	return t.leaderClass[c].Load()
}

// wrapPlane puts timing wrappers around the recorder's sink, tap and
// series consumers that the run configuration attached.
func (t *tracer) wrapPlane(rt *cli.Runtime) {
	if rt.Blackbox != nil {
		rt.Recorder.SetSink(&timedSink{next: rt.Blackbox, tr: t})
	}
	if rt.Incidents != nil {
		rt.Recorder.SetTap(&timedTap{next: rt.Incidents, tr: t})
	}
	if rt.Anomaly != nil {
		rt.Recorder.SetSeriesSink(&timedSeries{next: rt.Anomaly, tr: t})
	}
}

// write saves the kept spans as JSON.
func (t *tracer) write(path string, labels map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	labels["dropped"] = t.dropped
	labels["spans"] = t.spans
	err = json.NewEncoder(w).Encode(labels)
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// timedMVX times each protected region the server enters.
type timedMVX struct {
	machine.MVX
	tr *tracer
}

func (m *timedMVX) Invoke(t *machine.Thread, fn string, args ...uint64) (uint64, error) {
	parent := m.tr.req.Load()
	id, start := m.tr.begin()
	m.tr.region.Store(id)
	defer func() {
		m.tr.region.Store(0)
		m.tr.end(layerInvoke, id, parent, start)
	}()
	return m.MVX.Invoke(t, fn, args...)
}

// timedInterposer times every patched libc call, split by variant and by
// whether the call falls inside a protected region.
type timedInterposer struct {
	next machine.Interposer
	tr   *tracer
}

func (ip *timedInterposer) Intercept(t *machine.Thread, slot int, name string, args []uint64) uint64 {
	l := layerPassthrough
	switch {
	case t.Bias() != 0:
		l = layerFollower
	case ip.tr.region.Load() != 0:
		l = layerLeader
	}
	parent := ip.tr.parent()
	id, start := ip.tr.begin()
	defer func() {
		d := ip.tr.end(l, id, parent, start)
		if l == layerLeader {
			ip.tr.leaderInRegion.Add(d)
			if c := libc.SyncClassOf(name); c <= libc.SyncBarrier {
				ip.tr.leaderClass[c].Add(d)
			}
		}
	}()
	return ip.next.Intercept(t, slot, name, args)
}

// timedSink times the durable event sink (the black-box WAL writer).
type timedSink struct {
	next obs.Sink
	tr   *tracer
}

func (s *timedSink) SinkEvent(e obs.Event) {
	parent := s.tr.parent()
	id, start := s.tr.begin()
	s.next.SinkEvent(e)
	s.tr.end(layerSink, id, parent, start)
}

func (s *timedSink) SinkAlarm(a obs.AlarmInfo) {
	parent := s.tr.parent()
	id, start := s.tr.begin()
	s.next.SinkAlarm(a)
	s.tr.end(layerSink, id, parent, start)
}

func (s *timedSink) Flush() error {
	parent := s.tr.parent()
	id, start := s.tr.begin()
	defer s.tr.end(layerFlush, id, parent, start)
	return s.next.Flush()
}

// timedTap times the event tap (the incident engine).
type timedTap struct {
	next obs.Tap
	tr   *tracer
}

func (tp *timedTap) TapEvent(e obs.Event) {
	parent := tp.tr.parent()
	id, start := tp.tr.begin()
	tp.next.TapEvent(e)
	tp.tr.end(layerTap, id, parent, start)
}

// timedSeries times the metric-series consumer (the anomaly detector).
type timedSeries struct {
	next obs.SeriesSink
	tr   *tracer
}

func (ss *timedSeries) ObserveSeries(id obs.SeriesID, ts clock.Cycles, v uint64) {
	parent := ss.tr.parent()
	sid, start := ss.tr.begin()
	ss.next.ObserveSeries(id, ts, v)
	ss.tr.end(layerSeries, sid, parent, start)
}
