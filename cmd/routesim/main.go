// Command routesim runs the §1.2 routing experiment (E8): every node of Bn
// sends a packet to a uniformly random destination; the simulated
// store-and-forward completion time is compared against the bisection
// bound steps ≥ crossings / C(S,S̄) computed on the best constructed
// bisection. It also routes random permutations along monotone paths.
// Each row aggregates -trials independently seeded Monte-Carlo trials
// (min/mean/max steps, steps/bound ratios, bound-tightness counts) fanned
// over -workers parallel workers on the flat simulation engine.
//
// -pattern selects the traffic (random, permutation, hotspot,
// bitreversal — comma-separated, one table each). The fault model rides
// on top: -drop is the per-transmission loss probability (lost packets
// retransmit next step, bounded by -retransmits; 0 = retry forever),
// -dead kills that fraction of links for a whole trial, and -switching
// picks store-and-forward (sf) or cut-through (ct). All faults are
// seeded: the same seed reproduces the same losses at any worker count.
// -drop-sweep runs a degradation curve instead — one row per drop rate
// at the largest size — so a single invocation shows delivery rate and
// steps/bound decay as links get lossier.
//
// -timeout bounds the whole run: at the deadline, in-flight trials are
// discarded and each row aggregates only its completed trials (the trials
// column then reads "done of requested"). -progress streams completed
// trial counts to stderr. -json writes both tables as a machine-readable
// run manifest; -trace streams per-trial events as JSONL.
//
// Usage:
//
//	routesim [-seed 1] [-max-log 9] [-trials 100] [-workers 0]
//	         [-pattern random,permutation] [-drop 0] [-dead 0]
//	         [-retransmits 0] [-switching sf] [-drop-sweep rates]
//	         [-timeout 0] [-progress] [-pprof addr]
//	         [-json path] [-trace path] [-metrics]
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/route"
)

// tableTitles names the per-pattern tables in the rendered output.
var tableTitles = map[route.TrialKind]string{
	route.RandomDestinations:      "Random destinations on Bn: time vs the N/(4·BW)-style bound (§1.2)",
	route.RandomPermutations:      "Random permutations on Bn (monotone paths)",
	route.HotSpotDestinations:     "Hot-spot (all-to-one) traffic on Bn",
	route.BitReversalDestinations: "Bit-reversal permutation on Bn",
}

func main() {
	seed := flag.Int64("seed", 1, "base RNG seed (per-trial seeds derive from it)")
	maxLog := flag.Int("max-log", 9, "largest log n simulated")
	trials := flag.Int("trials", 100, "Monte-Carlo trials per row")
	workers := flag.Int("workers", 0, "parallel trial workers (0 = all cores)")
	patterns := flag.String("pattern", "random,permutation", "traffic patterns (comma-separated: random, permutation, hotspot, bitreversal)")
	drop := flag.Float64("drop", 0, "per-transmission drop probability in [0,1)")
	dead := flag.Float64("dead", 0, "fraction of links dead for a whole trial, in [0,1)")
	retransmits := flag.Int("retransmits", 0, "retransmission budget per packet (0 = unbounded)")
	switching := flag.String("switching", "sf", "switching discipline: sf (store-and-forward) or ct (cut-through)")
	dropSweep := flag.String("drop-sweep", "", "comma-separated drop rates: run a degradation curve at n = 2^max-log instead of the per-size tables")
	long := cli.RegisterLongRun()
	out := cli.RegisterOutput()
	flag.Parse()

	sw, swErr := route.ParseSwitching(*switching)
	kinds, kindErr := parsePatterns(*patterns)
	rates, sweepErr := parseRates(*dropSweep, *drop)
	cli.Validate(
		cli.Positive("trials", *trials),
		cli.NonNegative("workers", *workers),
		// A 2^24-input butterfly already simulates ~4·10^8 node-steps per
		// trial; larger exponents are out of this simulator's reach.
		cli.Range("max-log", *maxLog, 3, 24),
		cli.Probability("drop", *drop),
		cli.Probability("dead", *dead),
		cli.NonNegative("retransmits", *retransmits),
		swErr, kindErr, sweepErr,
	)

	ctx, cancel, onProgress := long.Start()
	defer cancel()
	out.Start("routesim")

	fault := route.FaultOptions{DropProb: *drop, MaxRetransmits: *retransmits, DeadLinkProb: *dead}
	opt := core.RoutingOptions{
		Trials:     *trials,
		Workers:    *workers,
		Fault:      fault,
		Switching:  sw,
		Ctx:        ctx,
		OnProgress: onProgress,
		Trace:      out.Tracer(),
	}
	faulty := fault.Enabled() || sw != route.StoreAndForward

	fmt.Printf("%d trials per row, seed %d\n\n", *trials, *seed)
	m := out.Manifest()
	m.Seed = *seed

	if len(rates) > 0 {
		// Degradation curve: one row per drop rate at the largest size,
		// per pattern, all in one table.
		n := 1 << *maxLog
		var sweep []core.RoutingReport
		for _, kind := range kinds {
			sweep = append(sweep, core.RoutingDegradation(n, *seed, kind, rates, opt)...)
		}
		title := fmt.Sprintf("Routing under faults: drop-rate sweep on B%d (§1.2 degradation)", n)
		fmt.Print(core.RenderFaultRoutingTable(title, sweep))
		m.AddTable("routing.faults", title, sweep)
		out.Finish(m)
		return
	}

	for _, kind := range kinds {
		var reports []core.RoutingReport
		for d := 3; d <= *maxLog; d++ {
			reports = append(reports, core.RoutingExperiment(1<<d, *seed, kind, opt))
		}
		title := tableTitles[kind]
		if faulty {
			fmt.Print(core.RenderFaultRoutingTable(title, reports))
		} else {
			fmt.Print(core.RenderRoutingTable(title, reports))
		}
		fmt.Println()
		m.AddTable("routing."+kind.Slug(), title, reports)
	}
	out.Finish(m)
}

// parsePatterns resolves the -pattern CSV to trial kinds.
func parsePatterns(csv string) ([]route.TrialKind, error) {
	var kinds []route.TrialKind
	for _, part := range strings.Split(csv, ",") {
		kind, err := route.ParseTrialKind(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-pattern: %v", err)
		}
		kinds = append(kinds, kind)
	}
	return kinds, nil
}

// parseRates resolves the -drop-sweep CSV; an empty flag means no sweep.
// A sweep replaces the single -drop rate, so setting both is an error.
func parseRates(csv string, drop float64) ([]float64, error) {
	if csv == "" {
		return nil, nil
	}
	if drop != 0 {
		return nil, fmt.Errorf("-drop-sweep replaces -drop; set only one")
	}
	var rates []float64
	for _, part := range strings.Split(csv, ",") {
		p, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || p < 0 || p >= 1 {
			return nil, fmt.Errorf("-drop-sweep: rates must be in [0, 1) (got %q)", part)
		}
		rates = append(rates, p)
	}
	return rates, nil
}
