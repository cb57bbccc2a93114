package core

import (
	"context"
	"fmt"
	"io"

	"repro/internal/construct"
	"repro/internal/mos"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/transmute"
)

// ReportOptions tune BuildFullReport.
type ReportOptions struct {
	// Quick trims the exact-solver budget for fast runs.
	Quick bool
	// Seed drives the randomized experiments (routing, Beneš checks).
	Seed int64
	// Ctx cancels the expensive solves mid-report: affected rows degrade
	// to incumbents (marked non-exact) rather than aborting the report.
	// nil means never cancelled.
	Ctx context.Context
	// OnProgress, when non-nil, receives solver progress snapshots every
	// second from the exact and Monte-Carlo engines.
	OnProgress func(solve.Progress)
	// Trace, when non-nil, receives span events from every solver the
	// report runs.
	Trace *obs.Tracer
	// MaxConstructedLog, when ≥ 12, extends the E2 Bn table with extra
	// constructed-bisection rows at log n ∈ {12, 15, 18, 20} up to the
	// bound, evaluated virtually by the word-parallel kernel like every
	// constructed row; below 12 (the default) the classic table is
	// unchanged.
	MaxConstructedLog int
}

// BenesCheck is one E9 row: how many permutations (identity, reversal and
// random ones) routed edge-disjointly through the n-input Beneš network.
type BenesCheck struct {
	N      int `json:"n"`
	Routed int `json:"routed"`
	Total  int `json:"total"`
}

// TransmutationRow is one E14 row: the Lemma 3.2 pipeline on Wn. Err is
// set (and the capacities partial) when the pipeline rejected the input
// cut.
type TransmutationRow struct {
	N int `json:"n"`
	transmute.Result
	Err string `json:"error,omitempty"`
}

// FullReport holds the structured results of every experiment of
// DESIGN.md (E1–E17): the data behind the text report and behind the
// machine-readable run manifest. Build it with BuildFullReport, render it
// with RenderFullReport, serialize it with AppendManifestTables.
type FullReport struct {
	Seed int64

	Structure          []StructureReport
	Bn                 []BisectionReport
	SubFolklore        []construct.Plan
	ThompsonFloorB1024 int
	MOS                []mos.Result
	Wn                 []BisectionReport
	InputBisectionB4   int
	CCC                []BisectionReport
	// Expansion holds the four §4.3 witness tables (n = 256); ExpansionExact
	// the two exact-optimum tables at enumerable sizes.
	Expansion      [][]ExpansionRow
	ExpansionExact [][]ExpansionRow
	Routing        []RoutingReport
	// RoutingFaults is the E8 degradation curve: drop-rate sweep at a
	// fixed shape, measuring how greedy routing decays from the §1.2
	// floor as links turn lossy.
	RoutingFaults []RoutingReport
	Benes         []BenesCheck
	// Variants holds the two E12 tables (n = 8 and n = 64).
	Variants      [][]VariantRow
	Bandwidth     []BandwidthReport
	Transmutation []TransmutationRow
	Dissemination []DisseminationReport
	Emulation     []EmulationRow
	Layout        []LayoutRow
}

// BuildFullReport runs every experiment of DESIGN.md (E1–E17) and returns
// the structured results. A non-nil error means an experiment detected an
// internal inconsistency (e.g. an invalid layout or unbalanced plan) and
// the report is incomplete.
func BuildFullReport(opts ReportOptions) (*FullReport, error) {
	exactNodes := 32
	if opts.Quick {
		exactNodes = 16
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	budget := BisectionBudget{
		ExactNodes: exactNodes,
		Ctx:        opts.Ctx,
		OnProgress: opts.OnProgress,
		Trace:      opts.Trace,
	}
	rep := &FullReport{Seed: opts.Seed}

	for _, n := range []int{4, 8, 16, 32} {
		rep.Structure = append(rep.Structure, ButterflyStructure(n, false))
	}
	for _, n := range []int{4, 8, 16, 32} {
		rep.Structure = append(rep.Structure, ButterflyStructure(n, true))
	}

	for _, n := range []int{2, 4, 8, 16, 64, 256, 1024} {
		r, err := ButterflyBisection(n, budget)
		if err != nil {
			return nil, err
		}
		rep.Bn = append(rep.Bn, r)
	}
	// The Thompson floor quotes B1024, the last classic row — read it
	// before the -max-log extension appends larger sizes.
	rep.ThompsonFloorB1024 = LayoutAreaLowerBound(rep.Bn[len(rep.Bn)-1].Constructed)
	for _, lg := range []int{12, 15, 18, 20} {
		if lg > opts.MaxConstructedLog {
			break
		}
		r, err := ButterflyBisection(1<<lg, budget)
		if err != nil {
			return nil, err
		}
		rep.Bn = append(rep.Bn, r)
	}
	var dims []int
	for d := 6; d <= 30; d += 3 {
		dims = append(dims, d)
	}
	sf, err := SubFolkloreSweep(dims)
	if err != nil {
		return nil, err
	}
	rep.SubFolklore = sf

	rep.MOS = MOSConvergence([]int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})

	for _, n := range []int{4, 8, 16, 64, 256} {
		rep.Wn = append(rep.Wn, WrappedBisection(n, budget))
	}
	rep.InputBisectionB4 = InputBisectionCheck(4)

	for _, n := range []int{8, 16, 64, 256} {
		rep.CCC = append(rep.CCC, CCCBisection(n, budget))
	}

	expOpts := ExpansionTableOptions{
		ExactNodes: exactNodes,
		Ctx:        opts.Ctx,
		OnProgress: opts.OnProgress,
		Trace:      opts.Trace,
	}
	for _, kind := range []ExpansionKind{WnEdge, WnNode, BnEdge, BnNode} {
		rep.Expansion = append(rep.Expansion, ExpansionTable(kind, 256, []int{1, 2, 3, 4}, expOpts))
	}
	smallOpts := expOpts
	smallOpts.ExactNodes = exactNodes * 2
	rep.ExpansionExact = append(rep.ExpansionExact,
		ExpansionTable(WnEdge, 16, []int{1}, smallOpts),
		ExpansionTable(BnEdge, 8, []int{1}, smallOpts))

	for _, n := range []int{8, 16, 32, 64} {
		rep.Routing = append(rep.Routing, RoutingExperiment(n, opts.Seed, route.RandomDestinations, RoutingOptions{
			Trials:     25,
			Ctx:        opts.Ctx,
			OnProgress: opts.OnProgress,
			Trace:      opts.Trace,
		}))
	}

	rep.RoutingFaults = RoutingDegradation(32, opts.Seed, route.RandomDestinations,
		[]float64{0, 0.02, 0.05, 0.1}, RoutingOptions{
			Trials:     25,
			Ctx:        opts.Ctx,
			OnProgress: opts.OnProgress,
			Trace:      opts.Trace,
		})

	for _, n := range []int{8, 64, 256} {
		routed, total := BenesRearrangeabilityCheck(n, 200, opts.Seed)
		rep.Benes = append(rep.Benes, BenesCheck{N: n, Routed: routed, Total: total})
	}

	rep.Variants = append(rep.Variants,
		VariantsTable(8, []int{1}, exactNodes),
		VariantsTable(64, []int{1, 2, 3}, exactNodes))

	for _, n := range []int{4, 8, 16, 64} {
		rep.Bandwidth = append(rep.Bandwidth, BandwidthExperiment(n, exactNodes))
	}

	for _, n := range []int{8, 16, 64} {
		row := TransmutationRow{N: n}
		res, err := TransmutationExperiment(n, exactNodes)
		row.Result = res
		if err != nil {
			row.Err = err.Error()
		}
		rep.Transmutation = append(rep.Transmutation, row)
	}

	for _, n := range []int{8, 16, 32} {
		if r, err := Dissemination(n); err == nil {
			rep.Dissemination = append(rep.Dissemination, r)
		}
	}

	rep.Emulation = EmulationExperiments(16)

	for _, n := range []int{16, 64, 256, 1024} {
		row, err := LayoutExperiment(n)
		if err != nil {
			return nil, err
		}
		rep.Layout = append(rep.Layout, row)
	}
	return rep, nil
}

// RenderFullReport writes the complete text reproduction report for a
// built FullReport to w. EXPERIMENTS.md records this output.
func RenderFullReport(w io.Writer, rep *FullReport) {
	fmt.Fprintln(w, "=== E1: structure (Fig. 1, §1.1) ===")
	fmt.Fprint(w, RenderStructureTable(rep.Structure))

	fmt.Fprintln(w, "\n=== E2: BW(Bn) (Theorem 2.20) ===")
	fmt.Fprint(w, RenderBisectionTable("BW(Bn)", rep.Bn))
	fmt.Fprint(w, RenderSubFolkloreTable(rep.SubFolklore))
	fmt.Fprintf(w, "Thompson (§1.2): layout area of B1024 is at least BW² = %d\n",
		rep.ThompsonFloorB1024)

	fmt.Fprintln(w, "\n=== E3: mesh of stars (Lemmas 2.17–2.19) ===")
	fmt.Fprint(w, RenderMOSTable(rep.MOS))

	fmt.Fprintln(w, "\n=== E4: BW(Wn) = n (Lemma 3.2) ===")
	fmt.Fprint(w, RenderBisectionTable("BW(Wn)", rep.Wn))
	fmt.Fprintf(w, "Lemma 3.1: BW(B4, inputs) = %d (≥ n = 4)\n", rep.InputBisectionB4)

	fmt.Fprintln(w, "\n=== E5: BW(CCCn) = n/2 (Lemma 3.3) ===")
	fmt.Fprint(w, RenderBisectionTable("BW(CCCn)", rep.CCC))

	fmt.Fprintln(w, "\n=== E6/E7: expansion (§4.3 tables) ===")
	for _, rows := range rep.Expansion {
		fmt.Fprint(w, RenderExpansionTable(rows))
	}
	fmt.Fprintln(w, "\n--- exact optima at enumerable sizes ---")
	for _, rows := range rep.ExpansionExact {
		fmt.Fprint(w, RenderExpansionTable(rows))
	}

	fmt.Fprintln(w, "\n=== E8: routing vs bisection bound (§1.2) ===")
	fmt.Fprint(w, RenderRoutingTable("random destinations on Bn (25 trials/row)", rep.Routing))
	fmt.Fprint(w, RenderFaultRoutingTable("routing under faults: drop-rate sweep on B32", rep.RoutingFaults))

	fmt.Fprintln(w, "\n=== E9: Beneš rearrangeability (Lemma 2.5 substrate) ===")
	for _, b := range rep.Benes {
		fmt.Fprintf(w, "  Beneš %3d inputs: %d/%d permutations routed edge-disjointly\n", b.N, b.Routed, b.Total)
	}
	fmt.Fprintln(w, "\nE10 (compactness/amenability) and E11 (embedding properties) are")
	fmt.Fprintln(w, "verified by the test suite: go test ./internal/compactness ./internal/embed")

	fmt.Fprintln(w, "\n=== E12: §1.6 related bounds (Snir, Hong–Kung) ===")
	for _, rows := range rep.Variants {
		fmt.Fprint(w, RenderVariantsTable(rows))
	}

	fmt.Fprintln(w, "\n=== E13: directed (Kruskal–Snir) bisection (§1.2) ===")
	fmt.Fprint(w, RenderBandwidthTable(rep.Bandwidth))

	fmt.Fprintln(w, "\n=== E14: Lemma 3.2 transmutation pipeline ===")
	for _, row := range rep.Transmutation {
		if row.Err != "" {
			fmt.Fprintf(w, "  W%d: %s\n", row.N, row.Err)
			continue
		}
		fmt.Fprintf(w, "  W%d: split level %d, Wn cut %d → Bn cut %d → rebalanced %d (%d moves), inputs bisected: %v\n",
			row.N, row.SplitLevel, row.WnCapacity, row.BnCapacity, row.FinalCapacity, row.Moves, row.InputBisected)
	}

	fmt.Fprintln(w, "\n=== E15: dissemination on Wn (§1.3) ===")
	fmt.Fprint(w, RenderDisseminationTable(rep.Dissemination))

	fmt.Fprintln(w, "\n=== E16: emulation through embeddings (§1.5) ===")
	fmt.Fprint(w, RenderEmulationTable(rep.Emulation))

	fmt.Fprintln(w, "\n=== E17: VLSI layout (§1.1/§1.2) ===")
	fmt.Fprint(w, RenderLayoutTable(rep.Layout))
}

// LayoutAreaLowerBound is Thompson's VLSI bound quoted in §1.2:
// A ≥ BW(G)².
func LayoutAreaLowerBound(bw int) int { return bw * bw }
