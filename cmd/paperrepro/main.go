// Command paperrepro runs every experiment in DESIGN.md (E1–E17) and prints
// the full reproduction report: the numbers recorded in EXPERIMENTS.md are
// regenerated by this binary. An experiment that detects an internal
// inconsistency (invalid layout, unbalanced plan) aborts the report with a
// non-zero exit instead of panicking.
//
// -json writes the same results as a versioned machine-readable run
// manifest (every table, solver telemetry, seeds, flags, environment);
// -trace streams solver span events as JSONL; -metrics dumps the metrics
// registry at exit.
//
// -max-log extends the E2 table with constructed-bisection rows up to
// B_{2^max-log}. Every constructed row is verified by the virtual plan
// evaluator; a graph is built only for the rows the exact or heuristic
// solve searches.
//
// Usage:
//
//	paperrepro [-quick] [-seed 1] [-max-log 0] [-timeout 0] [-progress]
//	           [-pprof addr] [-json path] [-trace path] [-metrics]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
)

func main() {
	quick := flag.Bool("quick", false, "skip the slower exact computations")
	seed := flag.Int64("seed", 1, "seed for the randomized experiments")
	maxLog := flag.Int("max-log", 0, "extend the E2 Bn table with constructed rows up to log n (0: classic table)")
	long := cli.RegisterLongRun()
	out := cli.RegisterOutput()
	flag.Parse()

	if *maxLog != 0 {
		cli.Validate(cli.Range("max-log", *maxLog, 12, 48))
	}

	ctx, cancel, onProgress := long.Start()
	defer cancel()
	out.Start("paperrepro")

	rep, err := core.BuildFullReport(core.ReportOptions{
		Quick:             *quick,
		Seed:              *seed,
		Ctx:               ctx,
		OnProgress:        onProgress,
		Trace:             out.Tracer(),
		MaxConstructedLog: *maxLog,
	})
	if err != nil {
		out.Finish(nil)
		fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
		os.Exit(1)
	}
	core.RenderFullReport(os.Stdout, rep)

	m := out.Manifest()
	m.Seed = rep.Seed
	rep.AppendManifestTables(m)
	out.Finish(m)
}
