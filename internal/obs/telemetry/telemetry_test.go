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
	"sync"
	"testing"

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
// with the full telemetry plane attached — recorder, sampler, HTTP server —
// then every endpoint is scraped and checked against the run.
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

	s := New(rec,
		WithHealth(Health{Phase: mon.Phase, FollowerLive: mon.FollowerLive}),
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
	if st.Status != "ok" || st.Phase != "idle" || st.Alarms != 0 {
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

	// Inject a divergence alarm: the next /healthz scrape degrades to 503
	// — without touching the run or recording anything.
	recorded := rec.Total()
	rec.Alarm(obs.AlarmInfo{Reason: "injected", Function: "ngx_worker_process_cycle", Detail: "test injection"})
	code, body = get(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after alarm = %d, want 503; body %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/healthz json: %v", err)
	}
	if st.Status != "degraded" || st.Alarms != 1 {
		t.Errorf("/healthz after alarm = %+v", st)
	}
	if got := rec.Total() - recorded; got != 1 {
		t.Errorf("the alarm and the scrape recorded %d events, want the alarm's 1", got)
	}

	// /forensics now carries the injected alarm's report.
	_, forensics := get(t, ts, "/forensics")
	if !strings.Contains(forensics, "injected") {
		t.Errorf("/forensics missing injected alarm:\n%s", forensics)
	}
}

// TestHealthzRequestP99: with a request-p99 ceiling set, /healthz answers
// 200 while the fleet's served-request p99 is at or under it, 503 once the
// p99 exceeds it, and stays 503 after the p99 falls back under it.
func TestHealthzRequestP99(t *testing.T) {
	clk := clock.NewCounter()
	rec := obs.NewRecorder(obs.Config{Clock: clk})
	fleet := obs.NewFleet()
	serve := func(n int, cycles clock.Cycles) {
		for i := 0; i < n; i++ {
			sp := fleet.Begin(rec, "nginx")
			clk.Charge(cycles)
			sp.End(true)
		}
	}
	ts := httptest.NewServer(New(rec, WithFleet(fleet), WithRequestP99(100_000)).Handler())
	defer ts.Close()
	scrape := func(want int) healthState {
		t.Helper()
		code, body := get(t, ts, "/healthz")
		var st healthState
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("/healthz json: %v", err)
		}
		if code != want {
			t.Errorf("/healthz = %d, want %d; body %s", code, want, body)
		}
		return st
	}

	serve(10, 1_000)
	if st := scrape(http.StatusOK); st.Status != "ok" || st.FleetP99Cycles == 0 || st.FleetP99Cycles > 100_000 {
		t.Errorf("/healthz under the ceiling = %+v", st)
	}
	serve(1, 10_000_000)
	if st := scrape(http.StatusServiceUnavailable); st.Status != "degraded" || st.FleetP99Cycles <= 100_000 {
		t.Errorf("/healthz over the ceiling = %+v", st)
	}
	// Enough fast requests pull the p99 back under the ceiling while
	// concurrent scrapes read the latch; the degraded state holds.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				resp, err := http.Get(ts.URL + "/healthz")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("concurrent /healthz = %d, want 503", resp.StatusCode)
				}
			}
		}()
	}
	serve(1000, 1_000)
	wg.Wait()
	if st := scrape(http.StatusServiceUnavailable); st.Status != "degraded" || st.FleetP99Cycles > 100_000 {
		t.Errorf("/healthz after recovery = %+v", st)
	}
	if st := scrape(http.StatusServiceUnavailable); st.Alarms != 0 {
		t.Errorf("the ceiling, not an alarm, must degrade /healthz: %+v", st)
	}
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
