// Command bwtable regenerates the bisection-width results of the paper
// (experiments E2, E4, E5): exact values on small networks, constructed
// cuts and certified lower bounds on larger ones, and the sub-n
// construction sweep that refutes the folklore BW(Bn) = n.
//
// -timeout bounds the whole run: expiring mid-search degrades exact values
// to best-found incumbents, flagged "no" in the exact? column, instead of
// running forever. -progress streams solver telemetry to stderr. -json
// writes every table as a machine-readable run manifest; -trace streams
// solver span events as JSONL.
//
// Usage:
//
//	bwtable [-exact-nodes N] [-max-log 20] [-timeout 0] [-progress]
//	        [-pprof addr] [-json path] [-trace path] [-metrics]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
)

func main() {
	exactNodes := flag.Int("exact-nodes", 32, "run the exact solver on networks up to this many nodes")
	maxLog := flag.Int("max-log", 20, "largest log n for the sub-n construction sweep")
	long := cli.RegisterLongRun()
	out := cli.RegisterOutput()
	flag.Parse()

	cli.Validate(
		cli.NonNegative("exact-nodes", *exactNodes),
		// Above 2^48 the plan search itself becomes the bottleneck; the
		// constructor refuses, so reject the flag up front.
		cli.Range("max-log", *maxLog, 0, 48),
	)

	ctx, cancel, onProgress := long.Start()
	defer cancel()
	out.Start("bwtable")
	budget := core.BisectionBudget{
		ExactNodes: *exactNodes,
		Ctx:        ctx,
		OnProgress: onProgress,
		Trace:      out.Tracer(),
	}

	// The classic table, then the -max-log extension: constructed rows at
	// 2^12–2^20. Every constructed row is measured by the virtual plan
	// evaluator (word-parallel from 64 columns up); the graph is built
	// only for the small rows the exact or heuristic solve searches.
	sizes := []int{2, 4, 8, 16, 64, 256, 1024}
	for _, lg := range []int{12, 15, 18, 20} {
		if lg <= *maxLog {
			sizes = append(sizes, 1<<lg)
		}
	}
	var butterflies []core.BisectionReport
	for _, n := range sizes {
		r, err := core.ButterflyBisection(n, budget)
		if err != nil {
			out.Finish(nil)
			fmt.Fprintf(os.Stderr, "bwtable: %v\n", err)
			os.Exit(1)
		}
		butterflies = append(butterflies, r)
	}
	fmt.Print(core.RenderBisectionTable("BW(Bn): 2(√2−1)n + o(n), refuting folklore n (Thm 2.20)", butterflies))
	fmt.Println()

	var wrapped []core.BisectionReport
	for _, n := range []int{4, 8, 16, 64, 256} {
		wrapped = append(wrapped, core.WrappedBisection(n, budget))
	}
	fmt.Print(core.RenderBisectionTable("BW(Wn) = n (Lemma 3.2)", wrapped))
	fmt.Println()

	var cccs []core.BisectionReport
	for _, n := range []int{8, 16, 64, 256} {
		cccs = append(cccs, core.CCCBisection(n, budget))
	}
	fmt.Print(core.RenderBisectionTable("BW(CCCn) = n/2 (Lemma 3.3)", cccs))
	fmt.Println()

	m := out.Manifest()
	m.AddTable("bisection.bn", "BW(Bn) (Thm 2.20)", butterflies).
		AddTable("bisection.wn", "BW(Wn) = n (Lemma 3.2)", wrapped).
		AddTable("bisection.ccc", "BW(CCCn) = n/2 (Lemma 3.3)", cccs)

	var dims []int
	for d := 6; d <= *maxLog; d++ {
		dims = append(dims, d)
	}
	if len(dims) == 0 {
		fmt.Fprintln(os.Stderr, "bwtable: -max-log below 6, skipping the sweep")
		out.Finish(m)
		return
	}
	sweep, err := core.SubFolkloreSweep(dims)
	if err != nil {
		out.Finish(nil)
		fmt.Fprintf(os.Stderr, "bwtable: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(core.RenderSubFolkloreTable(sweep))

	inputCheck := core.InputBisectionCheck(4)
	fmt.Printf("\nLemma 3.1 check: BW(B4, inputs) = %d (lemma: ≥ n = 4)\n", inputCheck)

	m.AddTable("bisection.sub_folklore", "sub-n plans vs folklore", sweep).
		AddTable("checks", "scalar verification results", []core.CheckRow{
			{Name: "input_bisection_b4", Value: inputCheck},
		})
	out.Finish(m)
}
