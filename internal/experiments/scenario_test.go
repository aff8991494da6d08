package experiments

import (
	"strings"
	"testing"

	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/sim/image"
)

// TestEverySliceKeepsTheLeader runs every slice of the synthetic-app
// matrix and requires each cell's leader to complete all its regions. The
// bench gate cannot catch a dead leader: the leader_dead key is absent
// from the baseline, and the survival and outcome counts it lowers pass
// the lower-is-better band.
func TestEverySliceKeepsTheLeader(t *testing.T) {
	for name, scs := range map[string][]Scenario{
		"chaos/strict":    chaosSlice(core.LockstepStrict),
		"chaos/pipelined": chaosSlice(core.LockstepPipelined),
		"nvariant":        nvariantSlice(),
		"survival-matrix": survivalMatrix(),
		"survival-sweep":  survivalSweep(),
		"ledger":          ledgerSlice(),
	} {
		t.Run(name, func(t *testing.T) {
			cells, err := runSlice(Seed, scs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cells {
				c := &cells[i]
				if !c.Survived || c.Completed != c.Regions {
					t.Errorf("(%s, %s, %s, N=%d): leader completed %d/%d regions: %s",
						c.Fault, c.Policy, c.Mode, c.N, c.Completed, c.Regions, c.LeaderErr)
				}
			}
		})
	}
}

// TestFailedStartFailsTheCell: Monitor.Invoke runs a region unprotected,
// with no error, when mvx_start fails, so the region loop alone would
// count the cell survived. With protected_func missing from the profile
// every mvx_start fails; runScenario must see the missing region reports
// and fail the cell, and the slice's survival check must fail with it.
func TestFailedStartFailsTheCell(t *testing.T) {
	s := baseScenario
	s.App = func(seed int64) (*boot.Env, error) {
		env, err := chaosEnv(seed)
		if err != nil {
			return nil, err
		}
		fs := env.Kernel.FS()
		path := image.ProfilePath("chaosapp")
		data, _ := fs.ReadFile(path)
		var kept []string
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "symbol protected_func ") {
				kept = append(kept, line)
			}
		}
		fs.WriteFile(path, []byte(strings.Join(kept, "\n")))
		return env, nil
	}
	c, err := runScenario(Seed, s)
	if err != nil {
		t.Fatal(err)
	}
	if c.Completed != c.Regions {
		t.Fatalf("leader completed %d/%d regions, want all of them run unprotected", c.Completed, c.Regions)
	}
	if c.Survived || c.Outcome != "leader-dead" || !strings.Contains(c.LeaderErr, "unprotected") {
		t.Errorf("survived=%v outcome=%s err=%q, want a failed cell for unprotected regions",
			c.Survived, c.Outcome, c.LeaderErr)
	}
	if err := mustSurvive([]Cell{c}); err == nil {
		t.Error("mustSurvive accepted a cell whose regions ran unprotected")
	}
}
