package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/obs"
	"smvx/internal/obs/blackbox"
	"smvx/internal/perfprof"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/workload"
)

// get fetches path from ts and returns status code and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestTelemetryLiveNginx is the acceptance test: nginx under sMVX protection
// with the full telemetry plane attached — recorder, sampler, watchdog, HTTP
// server — then every endpoint is scraped and checked against the run.
func TestTelemetryLiveNginx(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{})
	sampler := perfprof.NewSampler(1000)

	k := kernel.New(clock.DefaultCosts(), 42)
	cfg := nginx.Config{Port: 8080, MaxRequests: 8, AccessLog: true, Protect: "ngx_worker_process_cycle"}
	srv := nginx.NewServer(cfg)
	env, err := boot.NewEnv(k, srv.Program(), boot.WithSeed(42),
		boot.WithRecorder(rec), boot.WithSampler(sampler))
	if err != nil {
		t.Fatal(err)
	}
	k.FS().WriteFile("/var/www/index.html", bytes.Repeat([]byte("i"), 4096))
	client := k.NewProcess(clock.NewCounter())
	mon := core.New(env.Machine, env.LibC, core.WithSeed(42), core.WithRecorder(rec))
	srv.SetMVX(mon)

	wd := NewWatchdog(rec, SLO{MaxAlarms: 0})
	s := New(rec,
		WithHealth(Health{Phase: mon.Phase, FollowerLive: mon.FollowerLive}),
		WithWatchdog(wd),
		WithProfile(sampler))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	th, err := env.MainThread()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Run(th) }()
	workload.RunAB(client, 8080, "/index.html", 8)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(mon.Alarms()) != 0 {
		t.Fatalf("unexpected alarms: %v", mon.Alarms())
	}

	// /metrics: valid Prometheus exposition with per-category rendezvous
	// RTT histograms for all three emulation categories of Table 1.
	code, metrics := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, cat := range []string{"ret_only", "ret_buf", "special"} {
		probe := fmt.Sprintf(`smvx_rendezvous_cycles_bucket{category=%q`, cat)
		if !strings.Contains(metrics, probe) {
			t.Errorf("/metrics missing %s\n%s", probe, metrics)
		}
		if !strings.Contains(metrics, fmt.Sprintf(`smvx_rendezvous_cycles_count{category=%q} `, cat)) {
			t.Errorf("/metrics missing _count for category %s", cat)
		}
	}
	for _, want := range []string{
		"# TYPE smvx_rendezvous_cycles histogram",
		"smvx_syscall_total ",
		"smvx_lockstep_category_ret_buf ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /healthz: clean run is 200 with the monitor idle after the region.
	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d, body %s", code, body)
	}
	var st healthState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/healthz json: %v", err)
	}
	if st.Status != "ok" || st.Phase != "idle" || st.Alarms != 0 || st.WatchdogTripped {
		t.Errorf("/healthz = %+v", st)
	}

	// /profile: the sampler saw the workload; the folded stacks are rooted
	// at the variant and reach nginx functions.
	code, folded := get(t, ts, "/profile")
	if code != http.StatusOK || folded == "" {
		t.Fatalf("/profile status %d body %q", code, folded)
	}
	if !strings.Contains(folded, "leader;main") || !strings.Contains(folded, ";ngx_worker_process_cycle;") {
		t.Errorf("folded stacks missing protected loop:\n%s", folded)
	}
	if fn, n := sampler.HottestLeaf(); n == 0 || !strings.HasPrefix(fn, "ngx_") {
		t.Errorf("hottest leaf = %q (%d samples), want an ngx_ function", fn, n)
	}

	// /trace.json parses as a Chrome trace with span events.
	_, trace := get(t, ts, "/trace.json")
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &tr); err != nil {
		t.Fatalf("/trace.json: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("/trace.json has no events")
	}

	// Inject a divergence alarm: the watchdog trips on the /healthz scrape
	// and the endpoint degrades to 503 — without touching the run.
	rec.Alarm(obs.AlarmInfo{Reason: "injected", Function: "ngx_worker_process_cycle", Detail: "test injection"})
	code, body = get(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after alarm = %d, want 503; body %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/healthz json: %v", err)
	}
	if st.Status != "degraded" || !st.WatchdogTripped || len(st.WatchdogReasons) == 0 {
		t.Errorf("/healthz after alarm = %+v", st)
	}

	// /forensics now carries the injected alarm's report.
	_, forensics := get(t, ts, "/forensics")
	if !strings.Contains(forensics, "injected") {
		t.Errorf("/forensics missing injected alarm:\n%s", forensics)
	}
}

// TestTelemetryWatchdogThresholds drives each SLO check in isolation.
func TestTelemetryWatchdogThresholds(t *testing.T) {
	t.Run("alarms disabled", func(t *testing.T) {
		rec := obs.NewRecorder(obs.Config{})
		rec.Alarm(obs.AlarmInfo{Reason: "r"})
		wd := NewWatchdog(rec, SLO{MaxAlarms: -1})
		if wd.Check() {
			t.Error("tripped with alarm check disabled")
		}
	})
	t.Run("alarm count", func(t *testing.T) {
		rec := obs.NewRecorder(obs.Config{})
		wd := NewWatchdog(rec, SLO{MaxAlarms: 1})
		if wd.Check() {
			t.Error("tripped with no alarms")
		}
		rec.Alarm(obs.AlarmInfo{Reason: "a"})
		if wd.Check() {
			t.Error("tripped at the threshold")
		}
		rec.Alarm(obs.AlarmInfo{Reason: "b"})
		if !wd.Check() || !wd.Tripped() {
			t.Error("did not trip past the threshold")
		}
		if rs := wd.Reasons(); len(rs) != 1 || !strings.Contains(rs[0], "alarms 2 > max 1") {
			t.Errorf("reasons = %v", rs)
		}
		// The trip is recorded on the flight recorder and as metrics.
		var evs int
		for _, e := range rec.Events() {
			if e.Kind == obs.EvWatchdog {
				evs++
			}
		}
		if evs != 1 {
			t.Errorf("EvWatchdog events = %d, want 1", evs)
		}
		if c := rec.Metrics().Counter("watchdog.trips"); c != 1 {
			t.Errorf("watchdog.trips = %d", c)
		}
		// Re-checking the same violation does not duplicate it.
		wd.Check()
		if rs := wd.Reasons(); len(rs) != 1 {
			t.Errorf("reasons after recheck = %v", rs)
		}
	})
	t.Run("rendezvous p99", func(t *testing.T) {
		rec := obs.NewRecorder(obs.Config{})
		for i := 0; i < 10; i++ {
			rec.Metrics().Observe(obs.RendezvousMetricName(1), 100)
		}
		wd := NewWatchdog(rec, SLO{MaxAlarms: -1, MaxRendezvousP99: 1000})
		if wd.Check() {
			t.Error("tripped under the latency budget")
		}
		for i := 0; i < 5; i++ {
			rec.Metrics().Observe(obs.RendezvousMetricName(2), 1<<20)
		}
		if !NewWatchdog(rec, SLO{MaxAlarms: -1, MaxRendezvousP99: 1000}).Check() {
			t.Error("did not trip on p99 blowout")
		}
	})
	t.Run("divergence rate", func(t *testing.T) {
		rec := obs.NewRecorder(obs.Config{})
		for i := 0; i < 10; i++ {
			rec.Metrics().Observe(obs.RendezvousMetricName(1), 50)
		}
		rec.Alarm(obs.AlarmInfo{Reason: "x"})
		// 1 alarm / 10 rendezvous = 0.1.
		if NewWatchdog(rec, SLO{MaxAlarms: -1, MaxDivergenceRate: 0.5}).Check() {
			t.Error("tripped under the rate budget")
		}
		if !NewWatchdog(rec, SLO{MaxAlarms: -1, MaxDivergenceRate: 0.05}).Check() {
			t.Error("did not trip over the rate budget")
		}
	})
}

// TestTelemetryWatchdogStartStop exercises the periodic evaluator.
func TestTelemetryWatchdogStartStop(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{})
	wd := NewWatchdog(rec, SLO{MaxAlarms: 0})
	wd.Start(time.Millisecond)
	rec.Alarm(obs.AlarmInfo{Reason: "late"})
	deadline := time.Now().Add(2 * time.Second)
	for !wd.Tripped() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !wd.Tripped() {
		t.Error("periodic evaluator never tripped")
	}
	wd.Stop()
	wd.Stop() // idempotent
}

// TestTelemetryServerStartClose serves over a real listener on ":0".
func TestTelemetryServerStartClose(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{})
	rec.Metrics().Inc("scrapes")
	s := New(rec)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(string(body), "smvx_scrapes 1") {
		t.Errorf("metrics body:\n%s", body)
	}
	resp, err = http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	index, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(index), "/metrics") {
		t.Errorf("index body:\n%s", index)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestTelemetryMetricsPublishesOpenWAL: the black-box writer keeps its
// byte and record counts until it publishes them, so a /metrics scrape of a
// run whose WAL is still open must publish first.
func TestTelemetryMetricsPublishesOpenWAL(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{Clock: clock.NewCounter()})
	dir := t.TempDir()
	bb, err := blackbox.Open(dir, blackbox.Meta{Capacity: obs.DefaultCapacity}, blackbox.Options{Metrics: rec.Metrics(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetSink(bb)
	for i := 0; i < 5; i++ {
		rec.Record(obs.EvSyscall, obs.VariantLeader, 1, "read", uint64(i), 0, 0)
	}
	ts := httptest.NewServer(New(rec, WithBlackbox(bb)).Handler())
	defer ts.Close()
	_, body := get(t, ts, "/metrics")
	if !strings.Contains(body, "smvx_blackbox_records_written 6\n") {
		t.Errorf("/metrics must count the meta record and 5 events while the WAL is open:\n%s", body)
	}
	if err := bb.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, bb.CurrentSegment()))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("smvx_blackbox_bytes_written %d\n", info.Size()-int64(len(blackbox.Magic)))
	if _, body := get(t, ts, "/metrics"); !strings.Contains(body, want) {
		t.Errorf("/metrics after Close lacks %q:\n%s", want, body)
	}
}

// TestTelemetryNilRecorder: every endpoint answers gracefully when
// observability is disabled.
func TestTelemetryNilRecorder(t *testing.T) {
	s := New(nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for path, want := range map[string]int{
		"/metrics": 200, "/healthz": 200, "/trace.json": 200,
		"/forensics": 200, "/profile": 200, "/ledger": 200, "/nope": 404,
	} {
		if code, _ := get(t, ts, path); code != want {
			t.Errorf("%s status = %d, want %d", path, code, want)
		}
	}
}
