package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"smvx/internal/core"
	"smvx/internal/faultinject"
)

// pairAlarmKeyGolden pins the alarm-key sets the leader/follower pair
// monitor raised on the chaos matrix at seed 42 under strict lockstep. At
// -variants 2 every rendezvous is a vote with one follower ballot, and it
// must reproduce them exactly: any drift here means the N=2 vote stopped
// being the paper's pairwise compare.
var pairAlarmKeyGolden = map[string][]string{
	"none/kill-both":                    {},
	"none/leader-continue":              {},
	"none/restart-follower":             {},
	"follower-crash@2/kill-both":        {"follower variant fault"},
	"follower-crash@2/leader-continue":  {"follower variant fault"},
	"follower-crash@2/restart-follower": {"follower variant fault"},
	"arg-flip@4/kill-both":              {"follower variant fault", "libc argument mismatch@4"},
	"arg-flip@4/leader-continue":        {"libc argument mismatch@4"},
	"arg-flip@4/restart-follower":       {"libc argument mismatch@4"},
	"ipc-truncate@5/kill-both":          {"follower variant fault", "libc argument mismatch@5"},
	"ipc-truncate@5/leader-continue":    {"libc argument mismatch@5"},
	"ipc-truncate@5/restart-follower":   {"libc argument mismatch@5"},
	"stall@2/kill-both":                 {"follower variant fault", "rendezvous deadline exceeded@2"},
	"stall@2/leader-continue":           {"rendezvous deadline exceeded@2"},
	"stall@2/restart-follower":          {"rendezvous deadline exceeded@2"},
	"emu-corrupt@1/kill-both":           {"follower emulation-buffer fault@1"},
	"emu-corrupt@1/leader-continue":     {"follower emulation-buffer fault@1"},
	"emu-corrupt@1/restart-follower":    {"follower emulation-buffer fault@1"},
}

// TestPairParityAlarmKeys is the N=2 regression gate of the vote: the
// chaos matrix at the default two variants must raise exactly the pair
// monitor's alarm-key sets, strict and pipelined both.
func TestPairParityAlarmKeys(t *testing.T) {
	for _, mode := range []core.LockstepMode{core.LockstepStrict, core.LockstepPipelined} {
		res, err := ChaosMode(42, mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != len(pairAlarmKeyGolden) {
			t.Fatalf("%s: %d cells, golden has %d", mode, len(res.Cells), len(pairAlarmKeyGolden))
		}
		for i := range res.Cells {
			c := &res.Cells[i]
			coord := c.Fault + "/" + c.Policy.String()
			want, ok := pairAlarmKeyGolden[coord]
			if !ok {
				t.Errorf("%s: cell %s not in the pair golden", mode, coord)
				continue
			}
			got := make([]string, 0, len(c.AlarmKeys))
			for k := range c.AlarmKeys {
				got = append(got, k)
			}
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s %s: alarm keys %q, pair monitor raised %q", mode, coord, got, want)
			}
		}
	}
}

// TestNVariantMatrixDeterministic runs the size-vs-fault matrix twice at
// the same seed and requires byte-identical renderings.
func TestNVariantMatrixDeterministic(t *testing.T) {
	a, err := NVariant(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NVariant(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("nvariant matrix not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestNVariantOutvoteAndContinue pins the headline property of the
// variant set: at N>=3 a single corrupted follower loses the vote, is
// quarantined, and the leader finishes every region with the alarm
// contained — while the same fault at N=2 is only a pairwise divergence
// with no vote to win.
func TestNVariantOutvoteAndContinue(t *testing.T) {
	res, err := NVariant(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nvariantNs {
		for _, fault := range []string{"arg-flip@4", "ipc-truncate@5"} {
			c := res.cell(n, fault)
			if c == nil {
				t.Fatalf("no cell (N=%d, %s)", n, fault)
			}
			if !c.Survived || c.Completed != c.Regions {
				t.Errorf("(N=%d, %s): leader did not finish: regions=%d err=%q", n, fault, c.Completed, c.LeaderErr)
			}
			if c.Unhandled != 0 {
				t.Errorf("(N=%d, %s): %d unhandled alarms under containment", n, fault, c.Unhandled)
			}
			wantOutvotes := 1
			if n == 2 {
				wantOutvotes = 0
			}
			if c.Outvotes != wantOutvotes {
				t.Errorf("(N=%d, %s): outvotes = %d, want %d", n, fault, c.Outvotes, wantOutvotes)
			}
			if !c.Detected() {
				t.Errorf("(N=%d, %s): fault not detected", n, fault)
			}
		}
	}
	// The colluding pair outvotes the leader at N=3 (one leader-outvoted
	// alarm) but loses 3-to-2 at N=5 (both followers outvoted).
	if c := res.cell(3, "arg-flip@4-collude"); c == nil || c.Outvotes != 1 || !c.Survived {
		t.Errorf("collusion at N=3 = %+v, want one outvote alarm with the leader surviving", c)
	}
	if c := res.cell(5, "arg-flip@4-collude"); c == nil || c.Outvotes != 2 || !c.Survived {
		t.Errorf("collusion at N=5 = %+v, want both colluders outvoted", c)
	}
}

// TestLoneBallotKeepsPairwiseReason pins the vote's one-ballot case at
// N=3: once follower 2 has crashed, follower 1 casts the only follower
// ballot, so its flipped argument loses the 1-1 tie with the pairwise
// argument-mismatch alarm, not an outvote.
func TestLoneBallotKeepsPairwiseReason(t *testing.T) {
	c, err := runScenario(42, nvariantScenario(3, faultPlan{"follower-crash@2:variant:2+arg-flip@4", []faultinject.Fault{
		{Kind: faultinject.FollowerCrash, Call: 2, Variant: 2},
		{Kind: faultinject.ArgFlip, Call: 4, Bit: 0, Variant: 1},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(c.Alarms))
	for reason := range c.Alarms {
		got = append(got, reason)
	}
	sort.Strings(got)
	want := []string{core.AlarmFollowerFault.String(), core.AlarmArgMismatch.String()}
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) || c.Outvotes != 0 {
		t.Errorf("alarms %q with %d outvotes, want exactly %q and none", got, c.Outvotes, want)
	}
	if !c.Survived {
		t.Errorf("leader did not finish: regions=%d err=%q", c.Completed, c.LeaderErr)
	}
}

// TestCVEDetectedAtN3 replays the recorded CVE-2013-2028 exploit against
// a three-variant set: the stack-pivot gadget address is only meaningful
// in the leader's layout, so both shifted followers fault and the exploit
// is detected exactly as with the pair.
func TestCVEDetectedAtN3(t *testing.T) {
	res, err := CVEObservedOpts(nil, core.WithVariants(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.VanillaPwned {
		t.Error("exploit did not work on vanilla nginx (bug in the reproduction)")
	}
	if !res.SMVXDetected {
		t.Error("sMVX with three variants missed the exploit")
	}
	if !res.FixedSurvives {
		t.Error("fixed nginx did not survive")
	}
}

// TestNVariantRendering sanity-checks the artifact text consumed by CI.
func TestNVariantRendering(t *testing.T) {
	res, err := NVariant(42)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	for _, want := range []string{"N-variant voting matrix", "N=2", "N=3", "N=5", "detection and overhead"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
}
