package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/construct"
	"repro/internal/embed"
	"repro/internal/exact"
	"repro/internal/heuristic"
	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/tablefmt"
	"repro/internal/topology"
)

// BisectionReport collects everything this reproduction knows about the
// bisection width of one network instance (experiments E2, E4, E5). The
// JSON tags are the manifest schema; telemetry fields (explored, pruned,
// elapsed_ms) are normalized away by the golden tests but kept in real
// manifests so a slow solve is attributable.
type BisectionReport struct {
	Network string `json:"network"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`

	// Exact is the BW value from branch-and-bound, or Unknown beyond the
	// exact-size budget. It is the certified optimum only when
	// ExactComplete is true; a cancelled solve leaves the best incumbent
	// here (an upper bound) with ExactComplete false.
	Exact int `json:"exact"`
	// ExactComplete reports whether the exact search ran to completion.
	ExactComplete bool `json:"exact_complete"`
	// Explored/Pruned count the branch-and-bound nodes the exact search
	// processed / cut off; ElapsedMS is its wall time (all zero when the
	// exact solver was skipped).
	Explored  int64   `json:"explored"`
	Pruned    int64   `json:"pruned"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Heuristic is the best upper bound found by FM multi-start search, or
	// Unknown if skipped.
	Heuristic int `json:"heuristic"`
	// Constructed is the capacity of the paper's explicit cut (column cut,
	// sub-n plan, or dimension cut).
	Constructed int `json:"constructed"`
	// LowerBound is a certified lower bound (embedding congestion
	// argument), or Unknown.
	LowerBound int `json:"lower_bound"`
	// Theory is the paper's asymptotic value for this network.
	Theory float64 `json:"theory"`
	// TheoryLabel names the paper result backing Theory.
	TheoryLabel string `json:"theory_label"`
}

// heuristicNodes is the largest node count a report runs the heuristic
// search on.
const heuristicNodes = 16384

// BisectionBudget bounds the expensive computations in a report.
type BisectionBudget struct {
	// ExactNodes is the largest node count on which the exact solver runs
	// (0 disables it; 32 reaches B8, W8 and CCC8).
	ExactNodes int

	// Ctx cancels the expensive solves: exact searches return their best
	// incumbent with ExactComplete false, heuristic refinement stops at
	// the current pass, and virtual plan evaluation falls back to the
	// plan's predicted capacity. nil means never cancelled.
	Ctx context.Context
	// OnProgress, when non-nil, receives solver progress snapshots every
	// second while an exact search runs.
	OnProgress func(solve.Progress)
	// Trace, when non-nil, receives solver span events (labelled with the
	// network name).
	Trace *obs.Tracer
}

func (b BisectionBudget) solveOptions(label string, bound int) exact.SolveOptions {
	return exact.SolveOptions{
		Bound:      bound,
		Label:      label,
		Trace:      b.Trace,
		OnProgress: b.OnProgress,
	}
}

func (b BisectionBudget) bisectOptions(label string) heuristic.BisectOptions {
	return heuristic.BisectOptions{Starts: 6, Seed: 1, Ctx: b.Ctx, Label: label, Trace: b.Trace}
}

// recordSolve copies one exact-solver outcome into the report.
func (r *BisectionReport) recordSolve(res exact.BisectionResult) {
	r.Exact = res.Width
	r.ExactComplete = res.Exact
	r.Explored = res.Explored
	r.Pruned = res.Pruned
	r.ElapsedMS = durationMS(res.Elapsed)
}

// durationMS renders telemetry durations as milliseconds for manifests.
func durationMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// ButterflyBisection analyzes BW(Bn) (experiment E2, Theorem 2.20). The
// constructed cut is measured by the virtual plan evaluator at every size,
// and Bn is built only for the exact and heuristic solves that search it. A
// cancelled budget.Ctx degrades gracefully — incumbents instead of optima,
// the plan's predicted capacity instead of the virtually verified one — and
// the only error is a genuinely unbalanced virtual plan (a construction
// bug, previously a panic).
func ButterflyBisection(n int, budget BisectionBudget) (BisectionReport, error) {
	d := log2(n)
	nodes := n * (d + 1)
	rep := BisectionReport{
		Network:     fmt.Sprintf("B%d", n),
		Nodes:       nodes,
		Edges:       2 * n * d,
		Exact:       Unknown,
		Heuristic:   Unknown,
		LowerBound:  n / 2, // the §1.4 2K_N-embedding bound
		Theory:      TheoreticalBisectionRatio * float64(n),
		TheoryLabel: "2(√2−1)n + o(n) (Thm 2.20)",
	}

	runExact, runHeuristic := nodes <= budget.ExactNodes, nodes <= heuristicNodes
	var b *topology.Butterfly
	if runExact || runHeuristic {
		b = topology.NewButterfly(n)
	}
	if n >= 4 {
		plan, err := construct.BestPlan(n)
		if err != nil {
			return rep, fmt.Errorf("core: B%d bisection report: %w", n, err)
		}
		ctx := budget.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		capacity, err := plan.VirtualBisectionCapacity(ctx, 0)
		switch {
		case err == nil:
			rep.Constructed = capacity
		case ctx.Err() != nil:
			// Cancelled mid-evaluation: quote the plan's analytic capacity
			// (exact by construction, just not re-verified node by node).
			rep.Constructed = plan.Capacity
		default:
			return rep, fmt.Errorf("core: B%d bisection report: %w", n, err)
		}
	} else {
		// B2 is too small for the class-grid plan; the folklore column cut
		// is the construction (B2 is under heuristicNodes, so b is built).
		rep.Constructed = construct.ColumnBisection(b).Capacity()
	}
	if runExact {
		rep.recordSolve(exact.SolveBisection(budget.Ctx, b.Graph, budget.solveOptions("bisection "+rep.Network, rep.Constructed)))
		// Recompute the embedding-based bound exactly rather than quoting
		// n/2.
		e := embed.DoubledCompleteIntoButterfly(b)
		rep.LowerBound = e.BisectionLowerBound(embed.DoubledCompleteBisectionWidth(nodes))
	}
	if runHeuristic {
		rep.Heuristic = heuristic.BisectParallel(b.Graph, budget.bisectOptions("bisection "+rep.Network)).Capacity()
	}
	return rep, nil
}

// WrappedBisection analyzes BW(Wn) = n (experiment E4, Lemma 3.2).
func WrappedBisection(n int, budget BisectionBudget) BisectionReport {
	d := log2(n)
	rep := BisectionReport{
		Network:     fmt.Sprintf("W%d", n),
		Nodes:       n * d,
		Edges:       2 * n * d,
		Exact:       Unknown,
		Heuristic:   Unknown,
		LowerBound:  Unknown,
		Theory:      float64(n),
		TheoryLabel: "n (Lemma 3.2)",
	}
	w := topology.NewWrappedButterfly(n)
	rep.Constructed = construct.ColumnBisection(w).Capacity()
	if rep.Nodes <= budget.ExactNodes {
		rep.recordSolve(exact.SolveBisection(budget.Ctx, w.Graph, budget.solveOptions("bisection "+rep.Network, rep.Constructed)))
	}
	if rep.Nodes <= heuristicNodes {
		rep.Heuristic = heuristic.BisectParallel(w.Graph, budget.bisectOptions("bisection "+rep.Network)).Capacity()
	}
	return rep
}

// CCCBisection analyzes BW(CCCn) = n/2 (experiment E5, Lemma 3.3).
func CCCBisection(n int, budget BisectionBudget) BisectionReport {
	d := log2(n)
	rep := BisectionReport{
		Network:     fmt.Sprintf("CCC%d", n),
		Nodes:       n * d,
		Edges:       3 * n * d / 2,
		Exact:       Unknown,
		Heuristic:   Unknown,
		LowerBound:  Unknown,
		Theory:      float64(n) / 2,
		TheoryLabel: "n/2 (Lemma 3.3)",
	}
	c := topology.NewCCC(n)
	rep.Constructed = construct.CCCDimensionCut(c).Capacity()
	if rep.Nodes <= budget.ExactNodes {
		rep.recordSolve(exact.SolveBisection(budget.Ctx, c.Graph, budget.solveOptions("bisection "+rep.Network, rep.Constructed)))
	}
	if rep.Nodes <= heuristicNodes {
		rep.Heuristic = heuristic.BisectParallel(c.Graph, budget.bisectOptions("bisection "+rep.Network)).Capacity()
	}
	return rep
}

// InputBisectionCheck verifies Lemma 3.1 computationally: the minimum
// capacity of a cut of Bn bisecting its inputs, which the lemma proves is
// at least n. Exact for small n.
func InputBisectionCheck(n int) (width int) {
	b := topology.NewButterfly(n)
	_, width = exact.MinSubsetBisection(b.Graph, b.InputNodes())
	return width
}

// RenderBisectionTable renders E2/E4/E5 reports as one table. The "exact?"
// column distinguishes certified optima from cancelled-solve incumbents,
// and "explored" is the branch-and-bound node count behind the value.
func RenderBisectionTable(title string, reports []BisectionReport) string {
	t := tablefmt.New(title,
		"network", "nodes", "exact", "exact?", "explored", "heuristic", "constructed", "lower", "theory", "constructed/n-style ratio")
	for _, r := range reports {
		ratio := float64(r.Constructed) / r.Theory
		t.AddRow(r.Network, r.Nodes, fmtOrDash(r.Exact),
			fmtExactFlag(r.Exact, r.ExactComplete), fmtExplored(r.Exact, r.Explored),
			fmtOrDash(r.Heuristic),
			r.Constructed, fmtOrDash(r.LowerBound), r.Theory, ratio)
	}
	return t.String()
}

// fmtExactFlag renders the "exact?" cell: a dash when no exact value was
// attempted, otherwise whether the search certified the optimum.
func fmtExactFlag(value int, complete bool) interface{} {
	if value == Unknown {
		return "-"
	}
	if complete {
		return "yes"
	}
	return "no"
}

// fmtExplored renders the "explored" cell alongside an exact value.
func fmtExplored(value int, explored int64) interface{} {
	if value == Unknown {
		return "-"
	}
	return explored
}

// SubFolkloreSweep returns the best sub-n plan per size — the series behind
// the headline Theorem 2.20 plot: constructed-capacity/n falling from the
// folklore 1.0 toward 2(√2−1) ≈ 0.828.
func SubFolkloreSweep(dims []int) ([]construct.Plan, error) {
	plans := make([]construct.Plan, 0, len(dims))
	for _, d := range dims {
		p, err := construct.BestPlan(1 << d)
		if err != nil {
			return nil, fmt.Errorf("core: sub-folklore sweep at log n=%d: %w", d, err)
		}
		plans = append(plans, *p)
	}
	return plans, nil
}

// RenderSubFolkloreTable renders the sweep.
func RenderSubFolkloreTable(plans []construct.Plan) string {
	t := tablefmt.New("BW(Bn) upper bound: the §2 construction vs the folklore value n",
		"log n", "j", "a", "b", "capacity/n", "folklore", "theory limit")
	for i := range plans {
		p := &plans[i]
		t.AddRow(p.Dim, p.J, p.A, p.B, p.Ratio, 1.0, TheoreticalBisectionRatio)
	}
	return t.String()
}

func log2(n int) int {
	d := 0
	for 1<<d < n {
		d++
	}
	return d
}
