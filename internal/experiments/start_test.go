package experiments

import (
	"errors"
	"strings"
	"testing"

	"smvx/internal/apps/lighttpd"
	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/faultinject"
)

// TestWaitFailsAShortRun: a server whose MaxRequests is below the number
// of requests sent stops early, and Wait must fail the run rather than
// let it report the numbers of a smaller workload.
func TestWaitFailsAShortRun(t *testing.T) {
	for _, srv := range []Server{
		nginx.NewServer(nginx.Config{Port: Port, MaxRequests: 2, AccessLog: true}),
		lighttpd.NewServer(lighttpd.Config{Port: Port, MaxRequests: 2}),
	} {
		r, err := Start(Launch{Server: srv, Mode: Vanilla, Seed: Seed})
		if err != nil {
			t.Fatal(err)
		}
		r.AB(4)
		if err := r.Wait(); err == nil || !strings.Contains(err.Error(), "served 2 of 4 requests") {
			t.Errorf("%s: Wait = %v, want a served 2 of 4 failure", r.Env.Img.Name, err)
		}
	}
}

// TestWaitFailsOnAlarm: a clean run that raises an alarm fails, even when
// the policy contained it and every request was served.
func TestWaitFailsOnAlarm(t *testing.T) {
	r, err := Start(Launch{
		Server: nginx.NewServer(nginx.Config{Port: Port, MaxRequests: 4, Protect: "ngx_http_process_request_line"}),
		Mode:   SMVX, Seed: Seed,
		Monitor: func(env *boot.Env, seed int64, opts ...core.Option) *core.Monitor {
			faultinject.New(seed, faultinject.Fault{Kind: faultinject.ArgFlip, Call: 4}).Install(env.Machine, env.Obs)
			return monitor(core.WithPolicy(core.PolicyLeaderContinue))(env, seed, opts...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := r.AB(4); res.Completed != 4 {
		t.Fatalf("served %d of 4 requests, want all under leader-continue", res.Completed)
	}
	if err := r.Wait(); err == nil || !strings.Contains(err.Error(), "alarms") {
		t.Errorf("Wait = %v, want an alarm failure", err)
	}
}

// TestStartRejectsUnknownMode: the mode is cmd/smvx's -mode value, checked
// before any worker starts, and a ReMon run must protect the whole
// program.
func TestStartRejectsUnknownMode(t *testing.T) {
	if _, err := Start(Launch{Server: nginxApp.server(1, ""), Mode: "bogus", Seed: Seed}); !errors.Is(err, ErrUnknownMode) {
		t.Errorf("Start(bogus) = %v, want %v", err, ErrUnknownMode)
	}
	if _, err := Start(Launch{Server: nginxApp.server(1, nginxApp.loopRoot), Mode: ReMon, Seed: Seed}); err == nil {
		t.Error("Start ran remon with a region rooted below main")
	}
}
