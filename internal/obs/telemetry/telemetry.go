// Package telemetry is the live window into a running sMVX monitor: an
// embedded HTTP server that serves the flight recorder's metrics registry
// in Prometheus text format, health derived from the monitor's lockstep
// state, the Chrome-trace span timeline, divergence forensics, and the
// virtual-cycle sampling profile. /healthz degrades on the first
// divergence alarm (or a blown request-p99 ceiling) instead of killing the
// run. Everything reads the same nil-safe obs.Recorder the monitor already
// writes, and nothing here writes to it, so serving telemetry adds no work
// to the lockstep hot path and no event to the recorded stream.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"

	"smvx/internal/obs"
	"smvx/internal/obs/blackbox"
	"smvx/internal/obs/incident"
	"smvx/internal/obs/ledger"
)

// Health exposes monitor liveness to /healthz. All funcs may be nil
// (reported as "unknown" / true).
type Health struct {
	// Phase returns the monitor phase: "init", "idle", or "region".
	Phase func() string
	// FollowerLive reports whether the follower variant is still running
	// its lockstep loop.
	FollowerLive func() bool
	// Lockstep returns the configured lockstep mode and lag window.
	Lockstep func() (mode string, lagWindow int)
	// Rollback reports the survivable-MVX state: checkpoints captured,
	// rollback recoveries performed, and whether the rollback budget
	// escalated to kill-both.
	Rollback func() (snapshots, rollbacks int, escalated bool)
}

// FoldedSource provides folded-stack profile text for /profile
// (perfprof.Sampler implements it).
type FoldedSource interface {
	Folded() string
}

// Server serves the telemetry endpoints for one flight recorder.
type Server struct {
	rec *obs.Recorder

	mu         sync.Mutex
	health     Health
	requestP99 uint64
	degraded   bool
	profile    FoldedSource
	bb         *blackbox.Writer
	led        *ledger.Ledger
	fleet      *obs.Fleet
	inc        *incident.Engine

	ln net.Listener
}

// Option configures a Server.
type Option func(*Server)

// WithHealth attaches monitor health probes to /healthz.
func WithHealth(h Health) Option { return func(s *Server) { s.health = h } }

// WithRequestP99 sets the served-request latency ceiling: once the fleet's
// request p99 exceeds this many virtual cycles, /healthz reports 503
// (0 disables the ceiling; the first divergence alarm always degrades).
func WithRequestP99(cycles uint64) Option { return func(s *Server) { s.requestP99 = cycles } }

// WithProfile attaches a folded-stack source to /profile.
func WithProfile(f FoldedSource) Option { return func(s *Server) { s.profile = f } }

// WithBlackbox attaches a black-box WAL writer; /blackbox then snapshots
// the live WAL directory (flushing buffered frames first, so the reported
// sizes are the on-disk truth).
func WithBlackbox(w *blackbox.Writer) Option { return func(s *Server) { s.bb = w } }

// WithLedger attaches a rendezvous cost ledger; /ledger then serves its
// JSON snapshot and /metrics gains the labeled smvx_ledger_* series.
func WithLedger(l *ledger.Ledger) Option { return func(s *Server) { s.led = l } }

// WithFleet attaches a request-fleet aggregate; /fleet then serves its
// JSON snapshot and /metrics gains the labeled smvx_fleet_* series.
func WithFleet(f *obs.Fleet) Option { return func(s *Server) { s.fleet = f } }

// WithIncidents attaches an incident engine; /incidents then serves its
// JSON snapshot, /metrics gains the smvx_incidents_* series, and /healthz
// reports the active-incident count.
func WithIncidents(e *incident.Engine) Option { return func(s *Server) { s.inc = e } }

// New creates a telemetry server over rec (which may be nil: every
// endpoint still answers, with empty metrics and trivially-healthy state).
func New(rec *obs.Recorder, opts ...Option) *Server {
	s := &Server{rec: rec}
	for _, fn := range opts {
		fn(s)
	}
	return s
}

// SetHealth swaps the health probes after construction — the monitor is
// typically created after the server when the CLI wires flags first.
func (s *Server) SetHealth(h Health) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.health = h
	s.mu.Unlock()
}

// Handler returns the telemetry mux, for embedding or httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/trace.json", s.handleTrace)
	mux.HandleFunc("/forensics", s.handleForensics)
	mux.HandleFunc("/profile", s.handleProfile)
	mux.HandleFunc("/blackbox", s.handleBlackbox)
	mux.HandleFunc("/ledger", s.handleLedger)
	mux.HandleFunc("/fleet", s.handleFleet)
	mux.HandleFunc("/incidents", s.handleIncidents)
	mux.HandleFunc("/", s.handleIndex)
	return mux
}

// Start listens on addr (":0" picks a free port) and serves in a
// background goroutine. It returns the bound address, e.g. for the CLI to
// print the scrape URL.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go http.Serve(ln, s.Handler()) //nolint:errcheck // ends when ln closes
	return ln.Addr().String(), nil
}

// Close stops the listener (if Start ran).
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	ln := s.ln
	s.ln = nil
	s.mu.Unlock()
	if ln != nil {
		return ln.Close()
	}
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.rec.PublishDerived()
	s.mu.Lock()
	led, fleet, inc, bb := s.led, s.fleet, s.inc, s.bb
	s.mu.Unlock()
	bb.Publish()
	led.PublishTo(s.rec.Metrics())
	fleet.PublishTo(s.rec.Metrics())
	inc.PublishTo(s.rec.Metrics())
	s.rec.Metrics().WritePrometheus(w) //nolint:errcheck // client went away
}

// healthState is the /healthz JSON body.
type healthState struct {
	Status          string  `json:"status"`
	Phase           string  `json:"phase"`
	FollowerLive    bool    `json:"follower_live"`
	LockstepMode    string  `json:"lockstep_mode"`
	LagWindow       int     `json:"lag_window"`
	PipelineDepth   float64 `json:"pipeline_depth"`
	Alarms          int     `json:"alarms"`
	EventsEvicted   uint64  `json:"events_evicted"`
	RequestsTotal   uint64  `json:"requests_total"`
	FleetP99Cycles  uint64  `json:"fleet_p99_cycles"`
	Concurrency     int64   `json:"concurrency"`
	UptimeCycles    uint64  `json:"uptime_cycles"`
	IncidentsActive int     `json:"incidents_active"`
	Snapshots       int     `json:"snapshots_captured"`
	Rollbacks       int     `json:"rollbacks"`
	RollbackEscal   bool    `json:"rollback_escalated"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h, fleet, inc, ceiling := s.health, s.fleet, s.inc, s.requestP99
	s.mu.Unlock()

	st := healthState{Status: "ok", Phase: "unknown", FollowerLive: true, LockstepMode: "unknown"}
	if h.Phase != nil {
		st.Phase = h.Phase()
	}
	if h.FollowerLive != nil {
		st.FollowerLive = h.FollowerLive()
	}
	if h.Lockstep != nil {
		st.LockstepMode, st.LagWindow = h.Lockstep()
	}
	if h.Rollback != nil {
		st.Snapshots, st.Rollbacks, st.RollbackEscal = h.Rollback()
	}
	st.PipelineDepth, _ = s.rec.Metrics().Gauge(obs.MetricPipelineDepth)
	st.Alarms = s.rec.AlarmCount()
	st.EventsEvicted = s.rec.Evicted()
	st.UptimeCycles = uint64(s.rec.Now())
	st.IncidentsActive = inc.ActiveAt(s.rec.Now())
	if fleet != nil {
		_, completed, aborted, active := fleet.Totals()
		st.RequestsTotal = completed + aborted
		st.Concurrency = active
		if h := fleet.MergedLatency(); h.Count > 0 {
			st.FleetP99Cycles = h.Quantile(0.99)
		}
	}
	code := http.StatusOK
	if s.latchDegraded(st.Alarms > 0 || (ceiling > 0 && st.FleetP99Cycles > ceiling)) {
		st.Status = "degraded"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st) //nolint:errcheck // client went away
}

// latchDegraded latches the degraded state once bad is seen: the alarm and
// the run's worst latency are history, so a later scrape stays 503.
func (s *Server) latchDegraded(bad bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.degraded = s.degraded || bad
	return s.degraded
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.rec.WriteChromeTrace(w) //nolint:errcheck // client went away
}

func (s *Server) handleForensics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	reports := s.rec.ForensicReports()
	if len(reports) == 0 {
		fmt.Fprintln(w, "no divergence alarms recorded")
		return
	}
	for i, rep := range reports {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprint(w, rep)
	}
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	p := s.profile
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if p == nil {
		fmt.Fprintln(w, "# sampling profiler not enabled")
		return
	}
	fmt.Fprint(w, p.Folded())
}

func (s *Server) handleBlackbox(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	bb := s.bb
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if bb == nil {
		fmt.Fprintln(w, `{"enabled": false}`)
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(bb.Snapshot()) //nolint:errcheck // client went away
}

func (s *Server) handleLedger(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	led := s.led
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if led == nil {
		fmt.Fprintln(w, `{"enabled": false}`)
		return
	}
	led.WriteJSON(w) //nolint:errcheck // client went away
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	fleet := s.fleet
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if fleet == nil {
		fmt.Fprintln(w, `{"enabled": false}`)
		return
	}
	fleet.WriteJSON(w) //nolint:errcheck // client went away
}

func (s *Server) handleIncidents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	inc := s.inc
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if inc == nil {
		fmt.Fprintln(w, `{"enabled": false}`)
		return
	}
	inc.WriteJSON(w) //nolint:errcheck // client went away
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "smvx telemetry\n\n/metrics    Prometheus text format\n/healthz    monitor health (503 after a divergence alarm or a blown request p99)\n/trace.json Chrome trace of recorded events and spans\n/forensics  divergence forensics reports\n/profile    folded stacks from the virtual-cycle sampler\n/blackbox   live trace-WAL directory snapshot\n/ledger     rendezvous cost ledger (phase-level cycle/alloc breakdown)\n/fleet      per-app request latency/throughput aggregate\n/incidents  correlated incident timeline with root-cause attribution\n")
}
