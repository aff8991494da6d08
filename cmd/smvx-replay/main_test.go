package main

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"smvx/internal/apps/nginx"
	"smvx/internal/cli"
	"smvx/internal/experiments"
	"smvx/internal/obs"
)

func TestParseVariantNamesEverySlot(t *testing.T) {
	for v := obs.VariantLeader; v < obs.VariantNone; v++ {
		got, err := parseVariant(v.String())
		if err != nil || got != v {
			t.Errorf("parseVariant(%q) = %v, %v; want %v", v.String(), got, err, v)
		}
	}
	for _, name := range []string{"-", "follower9", "follower1", ""} {
		if v, err := parseVariant(name); err == nil {
			t.Errorf("parseVariant(%q) = %v, want an error", name, v)
		}
	}
}

// recordNginx records one nginx run under smvx with the shared flags args,
// as `smvx -app nginx -mode smvx <args> -blackbox <dir>` does, and returns
// the WAL directory.
func recordNginx(t *testing.T, requests int, args ...string) string {
	t.Helper()
	dir := t.TempDir()
	var cfg cli.Config
	fs := flag.NewFlagSet(t.Name(), flag.ContinueOnError)
	cfg.Register(fs)
	if err := fs.Parse(append(args, "-blackbox", dir)); err != nil {
		t.Fatal(err)
	}
	rt, err := cfg.Resolve(map[string]string{"app": "nginx", "mode": experiments.SMVX, "seed": fmt.Sprint(cfg.Seed)})
	if err != nil {
		t.Fatal(err)
	}
	srv := nginx.NewServer(nginx.Config{Port: experiments.Port, MaxRequests: requests, AccessLog: true,
		Version: nginx.VersionFixed, Protect: "ngx_worker_process_cycle"})
	r, err := experiments.Start(experiments.Launch{
		Server: srv, Mode: experiments.SMVX, Seed: cfg.Seed, Boot: rt.BootOptions(cfg.Seed), Monitor: rt.NewMonitor,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.AB(requests)
	_ = r.Exit() // a contained divergence still ends the run with an error
	if err := rt.Seal(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDiffNamesFollowerSlot: across a clean N=3 run and one whose second
// follower gets a flipped argument, `diff -variant follower2` finds the
// flipped call, and the first follower's streams match.
func TestDiffNamesFollowerSlot(t *testing.T) {
	const requests = 5
	clean := recordNginx(t, requests, "-variants", "3")
	flipped := recordNginx(t, requests, "-variants", "3", "-chaos", "arg-flip@6:variant:2", "-policy", "leader-continue")
	diff := func(variant string) string {
		t.Helper()
		var out strings.Builder
		if err := run([]string{"diff", "-variant", variant, "-context", "0", clean, flipped}, &out); err != nil {
			t.Fatalf("diff -variant %s: %v", variant, err)
		}
		return out.String()
	}
	if got := diff("follower"); !strings.Contains(got, "identical") {
		t.Errorf("diff -variant follower:\n%s\nwant identical streams", got)
	}
	// arg-flip@6 flips the sixth call's first argument: epoll_ctl's epoll
	// descriptor, call #5 counting from zero.
	got := diff("follower2")
	for _, want := range []string{"first divergence at call #5 (mismatch)", "> #5    epoll_ctl(0x5, 0x1)"} {
		if !strings.Contains(got, want) {
			t.Errorf("diff -variant follower2:\n%s\nwant %q", got, want)
		}
	}
}
