package obs

import (
	"strings"
	"sync"
	"testing"

	"smvx/internal/sim/clock"
)

// captureSink buffers every recorded event, standing in for the black-box
// WAL in replay-parity tests.
type captureSink struct {
	mu     sync.Mutex
	events []Event
}

func (s *captureSink) SinkEvent(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}
func (s *captureSink) SinkAlarm(AlarmInfo) {}
func (s *captureSink) Flush() error        { return nil }

// TestFleetReplayParity drives spans through a live fleet while capturing
// the mirrored events, folds the events into a fresh fleet, and requires
// the two TableText renderings to be byte-identical — the ledger's replay
// discipline applied to request spans.
func TestFleetReplayParity(t *testing.T) {
	counter := clock.NewCounter()
	rec := NewRecorder(Config{Clock: counter})
	sink := &captureSink{}
	rec.SetSink(sink)

	live := NewFleet()
	live.SetRun("strict")
	for i := 0; i < 50; i++ {
		sp := live.Begin(rec, "nginx")
		counter.Charge(clock.Cycles(1000 + i*37))
		sp.End(i%7 != 0)
		if i%3 == 0 {
			sp2 := live.Begin(rec, "lighttpd")
			counter.Charge(clock.Cycles(500 + i*11))
			sp2.End(true)
		}
	}

	replayed := NewFleet()
	replayed.SetRun("strict")
	for _, e := range sink.events {
		replayed.TapEvent(e)
	}

	liveTable, replayTable := live.TableText(), replayed.TableText()
	if liveTable != replayTable {
		t.Errorf("replayed fleet table differs from live:\n--- live ---\n%s--- replayed ---\n%s", liveTable, replayTable)
	}
	liveSnap, replaySnap := live.Snapshot(), replayed.Snapshot()
	if len(liveSnap.Apps) != 2 || len(replaySnap.Apps) != 2 {
		t.Fatalf("expected 2 apps, got live=%d replayed=%d", len(liveSnap.Apps), len(replaySnap.Apps))
	}
	if !strings.Contains(liveTable, "lockstep=strict") {
		t.Errorf("table missing lockstep label:\n%s", liveTable)
	}
}

// TestFleetAbortedSeparation checks that aborted spans count separately
// and never pollute the served-latency distribution.
func TestFleetAbortedSeparation(t *testing.T) {
	counter := clock.NewCounter()
	rec := NewRecorder(Config{Clock: counter})
	f := NewFleet()

	sp := f.Begin(rec, "nginx")
	counter.Charge(100)
	sp.End(true)
	sp = f.Begin(rec, "nginx")
	counter.Charge(1_000_000) // a slow abort must not become the max latency
	sp.End(false)

	snap := f.Snapshot()
	if len(snap.Apps) != 1 {
		t.Fatalf("expected 1 app, got %d", len(snap.Apps))
	}
	a := snap.Apps[0]
	if a.Completed != 1 || a.Aborted != 1 || a.Started != 2 {
		t.Errorf("counts = started %d completed %d aborted %d, want 2/1/1", a.Started, a.Completed, a.Aborted)
	}
	if a.MaxCycles >= 1_000_000 {
		t.Errorf("aborted span leaked into latency distribution: max = %d", a.MaxCycles)
	}
	started, completed, aborted, active := f.Totals()
	if started != 2 || completed != 1 || aborted != 1 || active != 0 {
		t.Errorf("Totals = %d/%d/%d/%d, want 2/1/1/0", started, completed, aborted, active)
	}
}

// TestFleetConcurrentWriteScrape races span writers against snapshot
// scrapers — the live-telemetry pattern — and is meaningful under -race
// (CI runs the obs tests with the race detector on).
func TestFleetConcurrentWriteScrape(t *testing.T) {
	counter := clock.NewCounter()
	rec := NewRecorder(Config{Clock: counter})
	f := NewFleet()
	f.SetRun("pipelined")

	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			app := "nginx"
			if w%2 == 1 {
				app = "lighttpd"
			}
			for i := 0; i < 500; i++ {
				sp := f.Begin(rec, app)
				counter.Charge(clock.Cycles(10 + i))
				sp.End(i%11 != 0)
			}
		}(w)
	}
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		m := NewMetrics()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = f.Snapshot()
			_ = f.TableText()
			_ = f.MergedLatency()
			f.PublishTo(m)
			_, _, _, _ = f.Totals()
		}
	}()
	writers.Wait()
	close(stop)
	<-scraperDone

	started, completed, aborted, _ := f.Totals()
	if started != 2000 || completed+aborted != 2000 {
		t.Errorf("Totals = started %d completed %d aborted %d, want 2000 total", started, completed, aborted)
	}
}
