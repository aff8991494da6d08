package replay_test

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"smvx/internal/apps/apputil"
	"smvx/internal/apps/nginx"
	"smvx/internal/cli"
	"smvx/internal/experiments"
	"smvx/internal/obs"
	"smvx/internal/obs/replay"
)

// recorded is one live run whose WAL has been sealed and replayed.
type recorded struct {
	live   *cli.Runtime
	replay *replay.Replay
	tables replay.Tables
}

// TestReplayParity is the live-equals-replay contract of every derived
// table: it records runs through the same cli.Config.Resolve the binaries
// use, seals each one's black-box WAL, replays it, and requires every
// table the live run had — the cost ledger's JSON, the fleet and incident
// tables, the forensics reports, the Chrome trace and the event table —
// to equal its replay byte for byte. The first nine runs are the command
// lines below as given to experiments -run cve and to smvx; the tenth
// folds an exploit's incidents through a non-default correlation window,
// which replay must read back from the WAL's labels.
func TestReplayParity(t *testing.T) {
	cases := []struct {
		name string
		// args are the shared flags; -blackbox is added.
		args []string
		// cve runs the experiments cve artifact; otherwise smvx serves
		// requests from nginx with protect as the protected function.
		cve      bool
		protect  string
		requests int
		check    func(t *testing.T, run recorded)
	}{
		{name: "cve-forensics", args: []string{"-forensics"}, cve: true,
			check: func(t *testing.T, run recorded) {
				if len(run.live.Recorder.ForensicReports()) == 0 {
					t.Error("the exploit raised no alarm")
				}
				// The variant diff flags the exploit's payload from disk alone.
				wantContains(t, "variant diff", variantDiff(run.replay), "mkdir")
			}},
		{name: "cve-ledger", args: []string{"-ledger"}, cve: true,
			check: func(t *testing.T, run recorded) {
				if calls, cycles, _ := run.live.Ledger.Totals(); calls == 0 || cycles == 0 {
					t.Errorf("live ledger empty (calls=%d cycles=%d): instrumentation not firing", calls, cycles)
				}
				wantContains(t, "ledger", run.tables.Ledger.TableText(), "mode=strict", " libc ")
			}},
		{name: "nginx-fleet", args: nil, protect: "ngx_worker_process_cycle", requests: 20,
			check: func(t *testing.T, run recorded) {
				wantContains(t, "fleet", run.tables.Fleet.TableText(), "nginx")
			}},
		{name: "leader-continue-incidents",
			args:    []string{"-chaos", "arg-flip@6", "-policy", "leader-continue", "-incidents"},
			protect: "ngx_worker_process_cycle", requests: 20,
			check: func(t *testing.T, run recorded) {
				wantContains(t, "incidents", run.tables.Incidents.TableText(), "root=fault-injected")
			}},
		{name: "rollback",
			args: []string{"-chaos", "arg-flip@6:repeat-every:160", "-policy", "rollback",
				"-incidents", "-ledger"},
			protect: "ngx_http_process_request_line", requests: 8,
			check: func(t *testing.T, run recorded) {
				wantContains(t, "incidents", run.tables.Incidents.TableText(), "rollback ngx_http_process_request_line")
				wantContains(t, "ledger", run.tables.Ledger.TableText(), "policy=rollback", " snapshot ", " restore ")
			}},
		{name: "rollback-pipelined",
			args: []string{"-lockstep", "pipelined", "-chaos", "arg-flip@6:repeat-every:160", "-policy", "rollback",
				"-incidents", "-ledger"},
			protect: "ngx_http_process_request_line", requests: 8,
			check: func(t *testing.T, run recorded) {
				// The followers' drain charges reach the WAL too.
				wantContains(t, "ledger", run.tables.Ledger.TableText(), "mode=pipelined", " drain ", " restore ")
			}},
		{name: "n3",
			args: []string{"-variants", "3", "-chaos", "arg-flip@6:variant:2", "-policy", "leader-continue",
				"-incidents", "-ledger"},
			protect: "ngx_worker_process_cycle", requests: 20,
			check: func(t *testing.T, run recorded) {
				wantContains(t, "summary", run.replay.Summary(), "label variants=3")
				// The fault is injected into the second follower only, so
				// the variant diff must name it.
				divs := run.replay.DiffVariants(0)
				if len(divs) != 1 || divs[0].Follower != obs.Variant(2) {
					t.Errorf("diverging followers = %+v, want follower2 alone", divs)
				}
				wantContains(t, "variant diff", variantDiff(run.replay), "--- follower2 ---")
				// The report that names the outvoted slot has a tail of its
				// own. Its events were evicted from the ring by the end of
				// the run; its ledger cells, which no tail shows, were not.
				wantContains(t, "forensics", strings.Join(run.live.Recorder.ForensicReports(), "\n"),
					"variant 2 outvoted", "--- follower2: final ")
			}},
		{name: "n3-clean", args: []string{"-variants", "3"},
			protect: "ngx_worker_process_cycle", requests: 5,
			check: func(t *testing.T, run recorded) {
				// Each follower's calls land in its own stream, and a clean
				// run's streams match the leader's.
				f1, f2 := run.replay.Calls(obs.Variant(1)), run.replay.Calls(obs.Variant(2))
				if len(f1) == 0 || len(f1) != len(f2) {
					t.Errorf("follower calls: %d and %d, want the same nonzero count", len(f1), len(f2))
				}
				if divs := run.replay.DiffVariants(0); len(divs) != 0 {
					t.Errorf("a clean N=3 run diverges:\n%s", variantDiff(run.replay))
				}
			}},
		{name: "telemetry-incidents",
			args: []string{"-telemetry", "127.0.0.1:0", "-chaos", "arg-flip@6", "-policy", "leader-continue",
				"-incidents"},
			protect: "ngx_worker_process_cycle", requests: 20,
			check: func(t *testing.T, run recorded) {
				// The alarm opens the run's one incident. /healthz reads the
				// alarm count and records nothing, so a scrape after the WAL
				// is sealed leaves the live stream as the replay has it.
				if n := run.live.Incidents.Count(); n != 1 {
					t.Errorf("live incidents = %d, want the alarm's one:\n%s", n, run.live.Incidents.TableText())
				}
				total := run.live.Recorder.Total()
				w := httptest.NewRecorder()
				run.live.Telemetry.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
				if w.Code != http.StatusServiceUnavailable {
					t.Errorf("/healthz after the alarm = %d, want 503:\n%s", w.Code, w.Body)
				}
				if got := run.live.Recorder.Total(); got != total || got != uint64(len(run.replay.Run.Events)) {
					t.Errorf("recorded %d events, %d before the scrape; the WAL holds %d", got, total, len(run.replay.Run.Events))
				}
			}},
		{name: "cve-incidents",
			args: []string{"-policy", "leader-continue", "-incidents", "-incident-window", "12000000"},
			cve:  true,
			check: func(t *testing.T, run recorded) {
				if run.live.Incidents.Count() == 0 {
					t.Error("live CVE run opened no incidents: the exploit alarm should have")
				}
				if got := run.tables.Incidents.Window(); got != 12_000_000 {
					t.Errorf("replayed incident window = %d, want the WAL label's 12000000", got)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := record(t, tc.args, tc.cve, tc.protect, tc.requests)
			if run.live.Ledger != nil {
				var live, rebuilt bytes.Buffer
				if err := run.live.Ledger.WriteJSON(&live); err != nil {
					t.Fatal(err)
				}
				if err := run.tables.Ledger.WriteJSON(&rebuilt); err != nil {
					t.Fatal(err)
				}
				if live.String() != rebuilt.String() {
					t.Errorf("replayed ledger differs from live\nlive:\n%s\nreplayed:\n%s", live.String(), rebuilt.String())
				}
			}
			if live, rebuilt := run.live.Fleet.TableText(), run.tables.Fleet.TableText(); live != rebuilt {
				t.Errorf("replayed fleet table differs from live\nlive:\n%s\nreplayed:\n%s", live, rebuilt)
			}
			if run.live.Incidents != nil {
				if live, rebuilt := run.live.Incidents.TableText(), run.tables.Incidents.TableText(); live != rebuilt {
					t.Errorf("replayed incident table differs from live\nlive:\n%s\nreplayed:\n%s", live, rebuilt)
				}
			}
			if live, rebuilt := run.live.Recorder.ForensicReports(), run.replay.ForensicReports(); !reflect.DeepEqual(live, rebuilt) {
				t.Errorf("replayed forensics differ from live\nlive:\n%s\nreplayed:\n%s",
					strings.Join(live, "\n"), strings.Join(rebuilt, "\n"))
			}
			var liveTrace, rebuiltTrace bytes.Buffer
			if err := run.live.Recorder.WriteChromeTrace(&liveTrace); err != nil {
				t.Fatal(err)
			}
			if err := run.replay.WriteChromeTrace(&rebuiltTrace); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(liveTrace.Bytes(), rebuiltTrace.Bytes()) {
				t.Errorf("replayed Chrome trace differs from live (%d and %d bytes)", liveTrace.Len(), rebuiltTrace.Len())
			}
			if live, rebuilt := run.live.Recorder.TableText(), run.replay.TableText(); live != rebuilt {
				t.Errorf("replayed event table differs from live\nlive:\n%s\nreplayed:\n%s", live, rebuilt)
			}
			tc.check(t, run)
		})
	}
}

// record runs one recording through cli.Config.Resolve the way the
// binaries do — experiments -run cve, or smvx's runServer — then seals
// the run with Runtime.Seal and replays the WAL.
func record(t *testing.T, args []string, cve bool, protect string, requests int) recorded {
	t.Helper()
	dir := t.TempDir()
	var cfg cli.Config
	fs := flag.NewFlagSet(t.Name(), flag.ContinueOnError)
	cfg.Register(fs)
	if err := fs.Parse(append(args, "-blackbox", dir)); err != nil {
		t.Fatal(err)
	}
	labels := map[string]string{"app": "nginx", "artifact": "cve"}
	if !cve {
		labels = map[string]string{"app": "nginx", "mode": experiments.SMVX, "seed": fmt.Sprint(cfg.Seed)}
	}
	rt, err := cfg.Resolve(labels)
	if err != nil {
		t.Fatal(err)
	}
	if cve {
		if _, err := experiments.CVEObservedOpts(rt.Recorder, rt.MonitorOptions()...); err != nil {
			t.Fatal(err)
		}
	} else {
		srv := nginx.NewServer(nginx.Config{
			Port: experiments.Port, MaxRequests: requests, AccessLog: true,
			Version: nginx.VersionFixed, Protect: protect,
			Track: &apputil.RequestTracker{App: "nginx", Rec: rt.Recorder, Fleet: rt.Fleet},
		})
		r, err := experiments.Start(experiments.Launch{
			Server: srv, Mode: experiments.SMVX, Seed: cfg.Seed,
			Boot: rt.BootOptions(cfg.Seed), Monitor: rt.NewMonitor,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.AB(requests)
		// A run whose policy does not contain the divergence exits with
		// an error; its WAL is what gets replayed.
		_ = r.Exit()
	}
	// Seal as Runtime.Finish does: the ledger's final flush reaches the
	// regions that never ended (the CVE's kill-both leader crashes
	// mid-region), then the WAL is sealed.
	if err := rt.Seal(); err != nil {
		t.Fatal(err)
	}
	// Runtime.Finish closes the telemetry server after it seals the WAL.
	if err := rt.Telemetry.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := replay.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Run.Damage) != 0 {
		t.Fatalf("WAL damaged: %v", r.Run.Damage)
	}
	return recorded{live: rt, replay: r, tables: r.Tables()}
}

// variantDiff renders the variant diff as smvx-replay diff -variants
// prints it.
func variantDiff(r *replay.Replay) string {
	var b strings.Builder
	for _, d := range r.DiffVariants(0) {
		b.WriteString(d.Format("leader", d.Follower.String()))
	}
	return b.String()
}

func wantContains(t *testing.T, what, got string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Errorf("%s missing %q:\n%s", what, w, got)
		}
	}
}
