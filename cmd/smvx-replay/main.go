// Command smvx-replay inspects black-box trace WALs recorded with
// smvx -blackbox (or experiments -blackbox): it reconstructs the
// flight-recorder timeline offline and regenerates the live process's
// artifacts — plus the cross-run trace diff the live process cannot do.
//
// Usage:
//
//	smvx-replay inspect <wal-dir>
//	smvx-replay forensics <wal-dir>
//	smvx-replay tables <wal-dir>
//	smvx-replay diff [-variant leader|follower|follower2…follower8] [-context 5] <wal-a> <wal-b>
//	smvx-replay diff -variants <wal-dir>
//	smvx-replay export [-format chrome|table|metrics] [-o out] <wal-dir>
//
// `forensics`, `tables`, and `export -format chrome` are byte-identical
// to what the recorded run itself would have printed: the replayer
// truncates the WAL stream to the ring view the live exporters saw, and
// folds the full stream through the cost ledger, request fleet and
// incident engine built as the live run built them. `diff` extends the
// Section 3.2 first-divergence analysis from in-memory basic-block logs
// to recorded libc-call streams: diff a success-login WAL against a
// failed-login WAL and the first divergent call — attributed to its
// simulated calling function — flags the authentication code; diff one
// run's variants (-variants) and it flags the call where each diverging
// follower parted from the leader.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"smvx/internal/obs"
	"smvx/internal/obs/replay"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smvx-replay:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: smvx-replay <inspect|forensics|tables|diff|export> [flags] <wal-dir> [<wal-dir>]")
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return usage()
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "inspect":
		return cmdInspect(rest, out)
	case "forensics":
		return cmdForensics(rest, out)
	case "tables":
		return cmdTables(rest, out)
	case "diff":
		return cmdDiff(rest, out)
	case "export":
		return cmdExport(rest, out)
	default:
		return usage()
	}
}

// load reads one WAL directory and surfaces its damage notes on stderr —
// damage never blocks an inspection, but the operator should know the
// record is partial.
func load(dir string) (*replay.Replay, error) {
	r, err := replay.Load(dir)
	if err != nil {
		return nil, err
	}
	for _, d := range r.Run.Damage {
		fmt.Fprintf(os.Stderr, "smvx-replay: warning: %s\n", d)
	}
	return r, nil
}

// loadOne parses the arguments of a subcommand that takes no flags and
// one <wal-dir>, and loads that WAL.
func loadOne(cmd string, args []string) (*replay.Replay, error) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("usage: smvx-replay %s <wal-dir>", cmd)
	}
	return load(fs.Arg(0))
}

func cmdInspect(args []string, out io.Writer) error {
	r, err := loadOne("inspect", args)
	if err != nil {
		return err
	}
	_, err = io.WriteString(out, r.Summary())
	return err
}

func cmdForensics(args []string, out io.Writer) error {
	r, err := loadOne("forensics", args)
	if err != nil {
		return err
	}
	reports := r.ForensicReports()
	if len(reports) == 0 {
		fmt.Fprintln(out, "no divergence alarms recorded")
		return nil
	}
	for _, rep := range reports {
		fmt.Fprint(out, rep)
	}
	return nil
}

// cmdTables prints the tables rebuilt from the WAL as smvx -metrics
// prints the live ones: ledger, fleet and incidents, each followed by a
// blank line.
func cmdTables(args []string, out io.Writer) error {
	r, err := loadOne("tables", args)
	if err != nil {
		return err
	}
	t := r.Tables()
	_, err = fmt.Fprintf(out, "%s\n%s\n%s\n", t.Ledger.TableText(), t.Fleet.TableText(), t.Incidents.TableText())
	return err
}

func cmdDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	variant := fs.String("variant", "leader", "which variant's call stream to diff across runs: "+variantNames)
	variants := fs.Bool("variants", false, "diff one run's leader stream against each follower's stream")
	context := fs.Int("context", replay.DefaultDiffContext, "libc calls of leading context to print per side")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *variants {
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: smvx-replay diff -variants <wal-dir>")
		}
		r, err := load(fs.Arg(0))
		if err != nil {
			return err
		}
		divs := r.DiffVariants(*context)
		if len(divs) == 0 {
			fmt.Fprintln(out, "leader and follower call streams are identical")
			return nil
		}
		for i, d := range divs {
			if i > 0 {
				fmt.Fprintln(out)
			}
			fmt.Fprint(out, d.Format("leader", d.Follower.String()))
		}
		return nil
	}

	if fs.NArg() != 2 {
		return fmt.Errorf("usage: smvx-replay diff [-variant %s] <wal-a> <wal-b>", variantNames)
	}
	v, err := parseVariant(*variant)
	if err != nil {
		return err
	}
	a, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	d, ok := replay.DiffRuns(a, b, v, *context)
	if !ok {
		fmt.Fprintf(out, "%s call streams are identical across the two runs\n", *variant)
		return nil
	}
	fmt.Fprint(out, d.Format(fs.Arg(0), fs.Arg(1)))
	return nil
}

// variantNames lists the names -variant takes.
var variantNames = "leader | follower | follower2 … " + (obs.VariantNone - 1).String()

// parseVariant returns the variant obs.Variant.String names name: the
// leader or one follower slot.
func parseVariant(name string) (obs.Variant, error) {
	for v := obs.VariantLeader; v < obs.VariantNone; v++ {
		if v.String() == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q (want %s)", name, variantNames)
}

func cmdExport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	format := fs.String("format", "chrome", "output format: chrome | table | metrics")
	outPath := fs.String("o", "", "write to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: smvx-replay export [-format chrome|table|metrics] [-o out] <wal-dir>")
	}
	r, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close() //nolint:errcheck // write errors surface below
		w = f
	}
	switch *format {
	case "chrome":
		return r.WriteChromeTrace(w)
	case "table":
		_, err := io.WriteString(w, r.TableText())
		return err
	case "metrics":
		_, err := io.WriteString(w, r.RebuildMetrics().TableText())
		return err
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}
