// Command exptable regenerates the §4.3 summary tables (experiments E6 and
// E7): for each of the four expansion functions EE/NE on Wn/Bn, the
// measured boundary of the paper's witness constructions (upper bounds),
// the credit-scheme certified lower bounds evaluated on those witnesses,
// the exact optima where enumerable, and the k/log k theory columns.
//
// Exact optima come from the parallel witness-seeded branch-and-bound in
// internal/exact; -workers sizes its pool and -kmax widens the set sizes it
// is allowed to certify. -timeout bounds each of the four tables on its own,
// so one long row cannot starve the tables after it: searches still open
// at their table's deadline report their incumbent, flagged "no" in the
// exact? column.
// -progress streams explored/pruned/incumbent telemetry to stderr. -json
// writes the four tables as a machine-readable run manifest; -trace
// streams survey span events as JSONL.
//
// Usage:
//
//	exptable [-n 256] [-max-d 4] [-exact-nodes 32] [-kmax 8] [-workers 0]
//	         [-timeout 0] [-progress] [-pprof addr]
//	         [-json path] [-trace path] [-metrics]
package main

import (
	"flag"
	"fmt"

	"repro/internal/cli"
	"repro/internal/core"
)

func main() {
	n := flag.Int("n", 256, "butterfly inputs (power of two ≥ 4)")
	maxD := flag.Int("max-d", 4, "largest witness sub-butterfly dimension")
	exactNodes := flag.Int("exact-nodes", 32, "exact enumeration budget (node count)")
	kmax := flag.Int("kmax", 8, "largest set size certified by the exact engine")
	workers := flag.Int("workers", 0, "exact-engine worker goroutines (0 = GOMAXPROCS)")
	long := cli.RegisterLongRun()
	out := cli.RegisterOutput()
	flag.Parse()

	sizeErr := cli.PowerOfTwo("n", *n)
	if sizeErr == nil && *n < 4 {
		// The Wn tables need n ≥ 4: W2 degenerates to self-loops, so
		// topology.NewWrappedButterfly panics below it.
		sizeErr = fmt.Errorf("-n must be a power of two ≥ 4 (got %d)", *n)
	}
	cli.Validate(
		sizeErr,
		cli.Positive("max-d", *maxD),
		cli.NonNegative("exact-nodes", *exactNodes),
		cli.Positive("kmax", *kmax),
		cli.NonNegative("workers", *workers),
	)

	cli.StartPprof(*long.Pprof)
	out.Start("exptable")
	opts := core.ExpansionTableOptions{
		ExactNodes: *exactNodes,
		KMax:       *kmax,
		Workers:    *workers,
		OnProgress: cli.ProgressPrinter(*long.Progress),
		Trace:      out.Tracer(),
	}
	m := out.Manifest()
	for _, kind := range []core.ExpansionKind{core.WnEdge, core.WnNode, core.BnEdge, core.BnNode} {
		// Each kind's lemma construction has its own valid dimension range;
		// clamp so one sweep can cover all four tables.
		top := core.MaxWitnessDim(kind, *n)
		if top > *maxD {
			top = *maxD
		}
		var dims []int
		for d := 1; d <= top; d++ {
			dims = append(dims, d)
		}
		ctx, cancel := cli.WithTimeout(*long.Timeout)
		opts.Ctx = ctx
		rows := core.ExpansionTable(kind, *n, dims, opts)
		cancel()
		fmt.Print(core.RenderExpansionTable(rows))
		fmt.Println()
		m.AddTable("expansion."+kind.Slug(), kind.String()+" (§4.3)", rows)
	}
	out.Finish(m)
}
