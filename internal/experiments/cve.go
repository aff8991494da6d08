package experiments

import (
	"fmt"
	"strings"

	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/obs"
	"smvx/internal/workload"
)

// CVEResult reproduces the Section 4.2 security experiment on nginx 1.3.9
// (CVE-2013-2028).
type CVEResult struct {
	// Chain documents the ROP gadgets the exploit uses.
	Chain []string
	// VanillaPwned reports whether the exploit succeeded on unprotected
	// nginx (it must: the bug is real).
	VanillaPwned bool
	// VanillaCrashed reports the hijacked worker's crash.
	VanillaCrashed bool
	// SMVXDetected reports whether the follower variant faulted at a
	// leader-layout gadget address under sMVX.
	SMVXDetected bool
	// SMVXAlarm is the alarm's description.
	SMVXAlarm string
	// FixedSurvives reports that the patched version (1.4.1 behavior)
	// discards the body and answers normally.
	FixedSurvives bool
	// Forensics holds one flight-recorder report per alarm raised during
	// the sMVX run, when CVEObserved ran with a recorder (nil otherwise).
	Forensics []string
}

// CVE runs the CVE-2013-2028 exploit three ways: against vulnerable vanilla
// nginx (the ROP chain executes mkdir and the worker crashes), against
// vulnerable nginx under sMVX protecting the outermost tainted function
// (the follower faults at gadget addresses "otherwise unmapped" in its
// view, raising the alarm), and against the fixed version (no effect).
func CVE() (*CVEResult, error) { return CVEObserved(nil) }

// CVEObserved is CVE with a flight recorder attached to the protected run
// (phase 2). After the follower faults, the recorder's forensics reports —
// the final events of both variants plus the faulted follower's register
// and stack snapshot, including the gadget address — are copied into
// res.Forensics. A nil rec runs the experiment unobserved.
func CVEObserved(rec *obs.Recorder) (*CVEResult, error) { return CVEObservedOpts(rec) }

// CVEObservedOpts is CVEObserved with extra monitor options applied to the
// protected run — how the exploit is replayed under pipelined lockstep or a
// containment policy to show detection does not depend on the strict
// rendezvous.
func CVEObservedOpts(rec *obs.Recorder, monOpts ...core.Option) (*CVEResult, error) {
	res := &CVEResult{}

	// 1. Vulnerable, unprotected.
	r, ex, err := startCVE(nginx.Config{MaxRequests: 1, Version: nginx.VersionVulnerable}, Vanilla, nil)
	if err != nil {
		return nil, err
	}
	res.Chain = ex.Chain
	if err := ex.Deliver(r.Client, Port); err != nil {
		return nil, fmt.Errorf("cve deliver: %w", err)
	}
	res.VanillaCrashed = r.Exit() != nil
	res.VanillaPwned = pwned(r)

	// 2. Vulnerable under sMVX, optionally with the flight recorder.
	r, ex, err = startCVE(nginx.Config{
		MaxRequests: 1, Version: nginx.VersionVulnerable,
		Protect: "ngx_http_process_request_line",
	}, SMVX, rec, monOpts...)
	if err != nil {
		return nil, err
	}
	if err := ex.Deliver(r.Client, Port); err != nil {
		return nil, fmt.Errorf("cve smvx deliver: %w", err)
	}
	r.Exit()
	detected, detail := followerFaults(r.Mon)
	res.SMVXDetected, res.SMVXAlarm = detected > 0, detail
	// Both variants have quiesced: the forensics reports are stable now.
	res.Forensics = rec.ForensicReports()

	// 3. Fixed version: the discard read is bounded.
	r, ex, err = startCVE(nginx.Config{MaxRequests: 1, Version: nginx.VersionFixed}, Vanilla, nil)
	if err != nil {
		return nil, err
	}
	resp, err := ex.DeliverAndRead(r.Client, Port)
	if err != nil {
		return nil, err
	}
	if err := r.Exit(); err == nil && strings.HasPrefix(string(resp), "HTTP/1.1 200") && !pwned(r) {
		res.FixedSurvives = true
	}
	return res, nil
}

// startCVE starts nginx (cfg, on Port) under mode, tracing into rec with
// a monitor built from monOpts, and builds the CVE-2013-2028 exploit
// against its image.
func startCVE(cfg nginx.Config, mode string, rec *obs.Recorder, monOpts ...core.Option) (*Run, *workload.Exploit, error) {
	cfg.Port = Port
	r, err := Start(Launch{
		Server: nginx.NewServer(cfg), Mode: mode, Seed: Seed,
		Boot: []boot.Option{boot.WithRecorder(rec)}, Monitor: monitor(monOpts...),
	})
	if err != nil {
		return nil, nil, err
	}
	ex, err := workload.BuildCVE2013_2028(r.Env.Img, "/pwned")
	return r, ex, err
}

// pwned reports whether the exploit's ROP chain reached its mkdir.
func pwned(r *Run) bool { return r.Env.Kernel.FS().DirExists("/pwned") }

// followerFaults counts the follower-fault alarms — the exploit
// detections — and returns the last one's detail.
func followerFaults(mon *core.Monitor) (n int, detail string) {
	if mon == nil {
		return 0, ""
	}
	for _, a := range mon.Alarms() {
		if a.Reason == core.AlarmFollowerFault {
			n, detail = n+1, a.Detail
		}
	}
	return n, detail
}

// String renders the experiment.
func (r *CVEResult) String() string {
	var b strings.Builder
	b.WriteString("Nginx CVE-2013-2028 (Section 4.2)\n")
	fmt.Fprintf(&b, "ROP chain: %s\n", strings.Join(r.Chain, " -> "))
	fmt.Fprintf(&b, "vanilla 1.3.9: exploit executed mkdir=%v, worker crashed=%v\n",
		r.VanillaPwned, r.VanillaCrashed)
	fmt.Fprintf(&b, "under sMVX:    detected=%v (%s)\n", r.SMVXDetected, r.SMVXAlarm)
	fmt.Fprintf(&b, "fixed 1.4.1:   survives=%v\n", r.FixedSurvives)
	return b.String()
}
