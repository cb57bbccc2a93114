package exact

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cut"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/solve"
)

// This file is the context-aware entry point to the exact engines, and
// the worker pool both engines run on. The Min*Bisection functions remain
// as uncancellable serial conveniences; Solve* accept a context.Context
// (deadline or cancellation), report telemetry, and — the key contract —
// mark results from an interrupted search Exact=false instead of silently
// presenting incumbents as optima.

// SolveOptions tune the context-aware solvers. The zero value runs an
// unseeded search on GOMAXPROCS workers.
type SolveOptions struct {
	// Workers is the pool size, ≤ 0 meaning GOMAXPROCS. One worker runs
	// the whole search as one depth-first job; more split it at a BFS
	// prefix into up to 256 jobs (see fanoutDepth). The optimum is the
	// same either way; the witness may differ when several are optimal.
	Workers int
	// Bound > 0 seeds the incumbent with a known achievable value (a
	// witness or heuristic boundary); ≤ 0 searches unseeded. A bound
	// below the optimum falls back to an unseeded rerun, so a completed
	// solve is exact either way.
	Bound int
	// Containing forces Root into every candidate set (expansion solvers
	// only): exact on vertex-transitive networks, an upper bound
	// elsewhere.
	Containing bool
	Root       int
	// OnProgress, when non-nil, receives Progress snapshots every
	// ProgressInterval (≤ 0: 1s) from a dedicated goroutine.
	OnProgress       func(solve.Progress)
	ProgressInterval time.Duration
	// Label names the solve in progress lines and trace spans.
	Label string
	// Trace, when non-nil, receives the solve's span events.
	Trace *obs.Tracer
}

func (o SolveOptions) monitor(ctx context.Context) *solve.Monitor {
	return solve.Start(solve.Options{
		Ctx:        ctx,
		OnProgress: o.OnProgress,
		Interval:   o.ProgressInterval,
		Name:       o.Label,
		Trace:      o.Trace,
	})
}

// Result is the outcome of a context-aware expansion solve.
type Result struct {
	// Set is a feasible k-set; Value its measured boundary. When Exact,
	// Value is the certified optimum and Set a witness.
	Set   []int
	Value int
	// Exact reports whether the search ran to completion. False means
	// the solve was cancelled and Value is only an upper bound.
	Exact bool
	// Explored/Pruned count branch-and-bound nodes processed / subtrees
	// cut off by the admissible bound; Elapsed is the solve wall time.
	Explored int64
	Pruned   int64
	Elapsed  time.Duration
}

// BisectionResult is the outcome of a context-aware bisection solve.
type BisectionResult struct {
	Cut   *cut.Cut
	Width int
	// Exact reports completion; false means Width is the capacity of the
	// best bisection found before cancellation (an upper bound on BW).
	Exact    bool
	Explored int64
	Pruned   int64
	Elapsed  time.Duration
}

// SolveBisection computes BW(g) under ctx. On cancellation it returns the
// best bisection found so far with Exact=false; the cut is always a valid
// bisection.
func SolveBisection(ctx context.Context, g *graph.Graph, opts SolveOptions) BisectionResult {
	mon := opts.monitor(ctx)
	defer mon.Close()
	c, w, exact := searchBisection(g, opts.Bound, opts.Workers, mon)
	return BisectionResult{
		Cut: c, Width: w, Exact: exact,
		Explored: mon.Explored(), Pruned: mon.Pruned(), Elapsed: mon.Elapsed(),
	}
}

// SolveSubsetBisection computes BW(g, u) (§2.1) under ctx; serial (the
// subset solver has no parallel variant). Workers is ignored.
func SolveSubsetBisection(ctx context.Context, g *graph.Graph, u []int, opts SolveOptions) BisectionResult {
	mon := opts.monitor(ctx)
	defer mon.Close()
	c, w, exact := minSubsetBisectionSearch(g, u, mon)
	return BisectionResult{
		Cut: c, Width: w, Exact: exact,
		Explored: mon.Explored(), Pruned: mon.Pruned(), Elapsed: mon.Elapsed(),
	}
}

// SolveEdgeExpansion computes EE(g,k) under ctx. For k ≥ 2 it first
// certifies EE(g, m) for m = 1..k−1, one search each, and prunes with
// those values; Explored and Pruned include them. On cancellation it
// returns a feasible k-set (best incumbent, or the BFS-prefix fallback if
// none was found) with Exact=false.
func SolveEdgeExpansion(ctx context.Context, g *graph.Graph, k int, opts SolveOptions) Result {
	return solveExpansion(ctx, g, k, edgeExpansion, opts)
}

// SolveNodeExpansion is the NE(g,k) analogue of SolveEdgeExpansion.
func SolveNodeExpansion(ctx context.Context, g *graph.Graph, k int, opts SolveOptions) Result {
	return solveExpansion(ctx, g, k, nodeExpansion, opts)
}

func solveExpansion(ctx context.Context, g *graph.Graph, k int, edge bool, opts SolveOptions) Result {
	mon := opts.monitor(ctx)
	defer mon.Close()
	checkSetSize(g, k)
	root := -1
	if opts.Containing {
		checkRoot(g, opts.Root)
		root = opts.Root
	}
	bound := noBound
	if opts.Bound > 0 {
		bound = opts.Bound
	}
	set, val, exact := prefixSet(k), 0, true
	if k > 0 && k < g.N() {
		s := newExpSearch(g, k, edge, bound, mon)
		order := searchExpansion(g, root, []*expSearch{s}, opts.Workers, mon)
		set, val, exact = s.result(g, order)
	}
	return Result{
		Set: set, Value: val, Exact: exact,
		Explored: mon.Explored(), Pruned: mon.Pruned(), Elapsed: mon.Elapsed(),
	}
}

// shardDepth is the BFS-prefix depth at which a search splits into jobs:
// up to 2^8 = 256 per search — plenty of slack for load balancing without
// flooding memory with prefixes. Shard ids index this enumeration, so
// every party of a distributed search derives the same depth from n.
func shardDepth(n int) int {
	return min(8, n/2)
}

// fanoutDepth is the split depth of a local run: none (one empty-prefix
// job, the plain depth-first search) on one worker or below 16 nodes,
// where the fan-out costs more than it balances, shardDepth otherwise.
func fanoutDepth(n, workers int) int {
	if n < 16 || poolSize(workers) == 1 {
		return 0
	}
	return shardDepth(n)
}

func poolSize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// runPool runs jobs 0..jobs-1 on min(poolSize(workers), jobs) workers,
// handing job indices out in order; the calling goroutine is one of the
// workers, so a one-worker pool starts no goroutine. Each worker calls
// newWorker once to build its private state and gets back the function
// that runs one job on it.
func runPool(jobs, workers int, newWorker func() func(job int)) {
	var next atomic.Int64
	work := func() {
		run := newWorker()
		for job := int(next.Add(1) - 1); job < jobs; job = int(next.Add(1) - 1) {
			run(job)
		}
	}
	var wg sync.WaitGroup
	for w := min(poolSize(workers), jobs); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	if jobs > 0 {
		work()
	}
	wg.Wait()
}
