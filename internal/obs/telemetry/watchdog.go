package telemetry

import (
	"fmt"
	"sync"
	"time"

	"smvx/internal/obs"
)

// SLO configures the watchdog's thresholds. The zero value disables every
// check except MaxAlarms, which defaults to tripping on the first recorded
// divergence (the paper's alarm IS the service-level objective).
type SLO struct {
	// MaxAlarms trips when the recorded alarm count exceeds it. 0 trips
	// on the first alarm; negative disables the check.
	MaxAlarms int
	// MaxDivergenceRate trips when alarms per lockstep rendezvous exceeds
	// it (0 disables). Rendezvous are counted from the
	// rendezvous.cycles{category=...} histograms.
	MaxDivergenceRate float64
	// MaxRendezvousP99 trips when the p99 of the merged per-category
	// rendezvous RTT histograms exceeds this many virtual cycles
	// (0 disables).
	MaxRendezvousP99 uint64
	// MaxRequestP99 trips when the p99 of the fleet's merged served-request
	// latency exceeds this many virtual cycles (0 disables; requires a
	// fleet attached via SetFleet).
	MaxRequestP99 uint64
}

// Watchdog evaluates SLO thresholds against a flight recorder. A trip is
// graceful degradation, never enforcement: it records an EvWatchdog event,
// bumps watchdog metrics, and latches the tripped state that flips
// /healthz to 503 — the run itself is never killed (the monitor's alarm
// machinery owns divergence response).
type Watchdog struct {
	rec *obs.Recorder
	slo SLO

	mu      sync.Mutex
	fleet   *obs.Fleet
	tripped bool
	reasons []string
	seen    map[string]bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewWatchdog creates a watchdog over rec. It does not run until Check is
// called (or Start launches the periodic evaluator).
func NewWatchdog(rec *obs.Recorder, slo SLO) *Watchdog {
	return &Watchdog{
		rec:  rec,
		slo:  slo,
		seen: map[string]bool{},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// SetFleet attaches the request-fleet aggregate the MaxRequestP99
// threshold reads. Safe to call after Start.
func (w *Watchdog) SetFleet(f *obs.Fleet) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.fleet = f
	w.mu.Unlock()
}

// Check evaluates every configured threshold once and returns whether the
// watchdog is (now) tripped. Safe from any goroutine; each distinct
// violation is recorded once.
func (w *Watchdog) Check() bool {
	if w == nil || w.rec == nil {
		return false
	}
	var viols []string
	alarms := w.rec.AlarmCount()
	if w.slo.MaxAlarms >= 0 && alarms > w.slo.MaxAlarms {
		viols = append(viols, fmt.Sprintf("alarms %d > max %d", alarms, w.slo.MaxAlarms))
	}
	rtt := w.rec.Metrics().MergedHistogram("rendezvous.cycles")
	if w.slo.MaxDivergenceRate > 0 && rtt.Count > 0 {
		if rate := float64(alarms) / float64(rtt.Count); rate > w.slo.MaxDivergenceRate {
			viols = append(viols, fmt.Sprintf("divergence rate %.4f > max %.4f", rate, w.slo.MaxDivergenceRate))
		}
	}
	if w.slo.MaxRendezvousP99 > 0 && rtt.Count > 0 {
		if p99 := rtt.Quantile(0.99); p99 > w.slo.MaxRendezvousP99 {
			viols = append(viols, fmt.Sprintf("rendezvous p99 %d cycles > max %d", p99, w.slo.MaxRendezvousP99))
		}
	}
	if w.slo.MaxRequestP99 > 0 {
		w.mu.Lock()
		fleet := w.fleet
		w.mu.Unlock()
		if h := fleet.MergedLatency(); h.Count > 0 {
			if p99 := h.Quantile(0.99); p99 > w.slo.MaxRequestP99 {
				viols = append(viols, fmt.Sprintf("request p99 %d cycles > max %d", p99, w.slo.MaxRequestP99))
			}
		}
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	for _, v := range viols {
		if w.seen[v] {
			continue
		}
		w.seen[v] = true
		w.reasons = append(w.reasons, v)
		w.rec.Record(obs.EvWatchdog, obs.VariantNone, 0, v, 0, 0, 0)
		w.rec.Metrics().Inc("watchdog.trips")
	}
	if len(viols) > 0 && !w.tripped {
		w.tripped = true
		w.rec.Metrics().SetGauge("watchdog.tripped", 1)
	}
	return w.tripped
}

// Tripped reports whether any threshold has ever been violated (latched).
func (w *Watchdog) Tripped() bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tripped
}

// Reasons returns the distinct violations observed so far, oldest first.
func (w *Watchdog) Reasons() []string {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.reasons...)
}

// Start launches the periodic evaluator goroutine (interval <= 0 selects
// 100ms of host time — the recorder's virtual clock only advances while
// the workload runs, so host pacing is the right cadence). Stop ends it.
func (w *Watchdog) Start(interval time.Duration) {
	if w == nil {
		return
	}
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				w.Check()
			case <-w.stop:
				return
			}
		}
	}()
}

// Stop ends the periodic evaluator after a final check. Safe to call even
// if Start never ran, and more than once.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() {
		close(w.stop)
		select {
		case <-w.done:
		case <-time.After(time.Second):
		}
		w.Check()
	})
}
