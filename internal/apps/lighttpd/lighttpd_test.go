package lighttpd

import (
	"bytes"
	"strings"
	"testing"

	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/obs"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/workload"
)

func serveEnv(t *testing.T, cfg Config, opts ...boot.Option) (*Server, *boot.Env, *kernel.Process) {
	t.Helper()
	k := kernel.New(clock.DefaultCosts(), 7)
	srv := NewServer(cfg)
	env, err := boot.NewEnv(k, srv.Program(), append([]boot.Option{boot.WithSeed(7)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	k.FS().WriteFile("/srv/www/index.html", bytes.Repeat([]byte("L"), 4096))
	client := k.NewProcess(clock.NewCounter())
	return srv, env, client
}

func runServer(t *testing.T, srv *Server, env *boot.Env) chan error {
	t.Helper()
	done := make(chan error, 1)
	th, err := env.MainThread()
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- srv.Run(th) }()
	return done
}

func TestServes4KBPage(t *testing.T) {
	srv, env, client := serveEnv(t, Config{Port: 8080, MaxRequests: 3})
	done := runServer(t, srv, env)
	res := workload.RunAB(client, 8080, "/index.html", 3)
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if res.Completed != 3 || res.Failed != 0 {
		t.Fatalf("ab: %+v", res)
	}
	if res.BytesRead < 3*4096 {
		t.Errorf("BytesRead = %d", res.BytesRead)
	}
}

func TestStatCacheAvoidsRepeatSyscalls(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{Capacity: 1 << 16})
	srv, env, client := serveEnv(t, Config{Port: 8080, MaxRequests: 5}, boot.WithRecorder(rec))
	done := runServer(t, srv, env)
	_ = workload.RunAB(client, 8080, "/index.html", 5)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rec.Evicted() != 0 {
		t.Fatalf("recorder evicted %d events", rec.Evicted())
	}
	count := func(name string) int {
		n := 0
		for _, e := range rec.Events() {
			if e.Kind == obs.EvSyscall && e.TID == env.Proc.PID() && e.Name == name {
				n++
			}
		}
		return n
	}
	// Only the first request misses: one stat/open pair total.
	if got := count("stat"); got != 1 {
		t.Errorf("stat syscalls = %d, want 1 (stat cache)", got)
	}
	if got := count("open"); got != 1 {
		t.Errorf("open syscalls = %d, want 1", got)
	}
}

func TestMissing404(t *testing.T) {
	srv, env, client := serveEnv(t, Config{Port: 8080, MaxRequests: 1})
	done := runServer(t, srv, env)
	resp, err := workload.RequestPath(client, 8080, workload.GetRequest("/ghost.html"))
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if !strings.HasPrefix(string(resp), "HTTP/1.1 404") {
		t.Errorf("response: %.60s", resp)
	}
}

func TestRatioHigherThanNginx(t *testing.T) {
	// Figure 7: lighttpd's libc:syscall ratio is ~7.8 (nginx: ~5.4).
	srv, env, client := serveEnv(t, Config{Port: 8080, MaxRequests: 30})
	done := runServer(t, srv, env)
	_ = workload.RunAB(client, 8080, "/index.html", 30)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	ratio := float64(env.LibC.TotalCalls()) / float64(env.Proc.SyscallTotal())
	if ratio < 6.0 || ratio > 10.0 {
		t.Errorf("libc:syscall ratio = %.2f (libc=%d sys=%d), want ~7.8",
			ratio, env.LibC.TotalCalls(), env.Proc.SyscallTotal())
	}
}

func TestUnderSMVXFullProtection(t *testing.T) {
	k := kernel.New(clock.DefaultCosts(), 7)
	srv := NewServer(Config{Port: 8080, MaxRequests: 3, Protect: "server_main_loop"})
	env, err := boot.NewEnv(k, srv.Program(), boot.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	k.FS().WriteFile("/srv/www/index.html", bytes.Repeat([]byte("L"), 4096))
	client := k.NewProcess(clock.NewCounter())

	mon := core.New(env.Machine, env.LibC, core.WithSeed(7))
	srv.SetMVX(mon)

	done := runServer(t, srv, env)
	res := workload.RunAB(client, 8080, "/index.html", 3)
	if err := <-done; err != nil {
		t.Fatalf("server under sMVX: %v", err)
	}
	if res.Completed != 3 {
		t.Fatalf("ab: %+v", res)
	}
	if alarms := mon.Alarms(); len(alarms) != 0 {
		t.Fatalf("false-positive alarms: %v", alarms)
	}
}

func TestForkInInitCostsMore(t *testing.T) {
	// Table 2: fork during lighttpd initialization (~697us) costs more
	// than fork of an empty main (~640us) because of resident pages.
	runOnce := func(forkInit bool) uint64 {
		k := kernel.New(clock.DefaultCosts(), 7)
		srv := NewServer(Config{Port: 8080, MaxRequests: 1, ForkInInit: forkInit})
		env, err := boot.NewEnv(k, srv.Program(), boot.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		k.FS().WriteFile("/srv/www/index.html", bytes.Repeat([]byte("L"), 512))
		client := k.NewProcess(clock.NewCounter())
		done := runServer(t, srv, env)
		_ = workload.RunAB(client, 8080, "/index.html", 1)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return uint64(env.Counter.Cycles())
	}
	with := runOnce(true)
	without := runOnce(false)
	if with <= without {
		t.Errorf("fork-in-init run (%d cycles) should cost more than without (%d)", with, without)
	}
}
