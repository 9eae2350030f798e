// Command sepbench regenerates the paper's §4 comparison: for each
// experiment in the per-experiment index of DESIGN.md, it builds the
// paper's database, runs each evaluation algorithm, and prints the sizes of
// the relations constructed (Definition 4.2) alongside wall-clock times.
// Timing the engine itself is perfbench's job (see perfbench/run.sh).
//
// Usage:
//
//	sepbench                 # all experiments, full sweeps
//	sepbench -exp e2         # one experiment
//	sepbench -quick          # reduced sweeps (the sizes the tests check)
//	sepbench -list           # list experiments and claims
//	sepbench -format csv     # CSV instead of aligned tables
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sepdl/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sepbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "experiment id (e1..e9) or \"all\"")
		quick  = fs.Bool("quick", false, "run reduced parameter sweeps")
		list   = fs.Bool("list", false, "list experiments and exit")
		format = fs.String("format", "table", "output format: table|csv")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "sepbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(stderr, "sepbench: unknown format %q (want table or csv)\n", *format)
		return 2
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return 0
	}

	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.All()
	} else {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(stderr, "sepbench: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		exps = []bench.Experiment{e}
	}
	if *format == "csv" {
		var all []bench.Row
		for _, e := range exps {
			all = append(all, e.Run(*quick)...)
		}
		fmt.Fprint(stdout, bench.FormatCSV(all))
		return 0
	}
	for i, e := range exps {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, bench.FormatExperiment(e, e.Run(*quick)))
	}
	return 0
}
