package main

import (
	"errors"
	"flag"
	"testing"

	"smvx/internal/cli"
	"smvx/internal/experiments"
)

// TestNbenchRejectsOtherModes: nbench runs vanilla or under sMVX. ReMon is
// Figure 7's server baseline, so -mode remon fails like any unknown mode
// instead of running unprotected.
func TestNbenchRejectsOtherModes(t *testing.T) {
	var cfg cli.Config
	cfg.Register(flag.NewFlagSet(t.Name(), flag.ContinueOnError))
	rt, err := cfg.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{experiments.ReMon, "bogus"} {
		if err := runNbench("numeric_sort", 1, mode, cfg.Seed, rt); !errors.Is(err, experiments.ErrUnknownMode) {
			t.Errorf("-mode %s: err = %v, want %v", mode, err, experiments.ErrUnknownMode)
		}
	}
	for _, mode := range []string{experiments.Vanilla, experiments.SMVX} {
		if err := runNbench("numeric_sort", 1, mode, cfg.Seed, rt); err != nil {
			t.Errorf("-mode %s: %v", mode, err)
		}
	}
}
