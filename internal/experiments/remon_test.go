package experiments

import (
	"flag"
	"testing"

	"smvx/internal/cli"
	"smvx/internal/core"
)

// startReMon starts app in ReMon mode with its monitor built from the
// shared flags args, as `smvx -mode remon args...` does.
func startReMon(t *testing.T, app httpApp, requests int, args ...string) (*Run, *cli.Runtime) {
	t.Helper()
	var cfg cli.Config
	fs := flag.NewFlagSet(t.Name(), flag.ContinueOnError)
	cfg.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	rt, err := cfg.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Start(Launch{
		Server: app.server(requests, Root(ReMon, "")), Mode: ReMon, Seed: cfg.Seed,
		Boot: rt.BootOptions(cfg.Seed), Monitor: rt.NewMonitor,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, rt
}

// TestReMonHonoursChaosAndPolicy: ReMon mode runs the one monitor, so the
// chaos plan and the policy reach it. The flipped argument is caught at a
// syscall rendezvous, leader-continue contains the alarm, and every
// request is still served.
func TestReMonHonoursChaosAndPolicy(t *testing.T) {
	const requests = 10
	r, _ := startReMon(t, nginxApp, requests, "-chaos", "arg-flip@6", "-policy", "leader-continue")
	if res := r.AB(requests); res.Completed != requests {
		t.Errorf("served %d of %d requests", res.Completed, requests)
	}
	if err := r.Exit(); err != nil {
		t.Fatal(err)
	}
	alarms := r.Mon.Alarms()
	if len(alarms) == 0 {
		t.Fatal("the injected argument flip raised no alarm")
	}
	for _, a := range alarms {
		if a.Reason != core.AlarmArgMismatch || !a.Handled || a.Function != "main" {
			t.Errorf("alarm %+v, want a contained argument mismatch in main", a)
		}
	}
}

// TestReMonPipelinedN3: the syscall posture runs three variants under
// pipelined lockstep with the cost ledger attached, with no alarm.
func TestReMonPipelinedN3(t *testing.T) {
	const requests = 10
	r, rt := startReMon(t, lighttpdApp, requests, "-variants", "3", "-lockstep", "pipelined", "-ledger")
	r.AB(requests)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if calls, _, _ := rt.Ledger.Totals(); calls == 0 {
		t.Error("the ledger saw no call")
	}
	if got := r.Mon.Variants(); got != 3 {
		t.Errorf("variants = %d, want 3", got)
	}
}
