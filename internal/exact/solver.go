package exact

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cut"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/solve"
)

// This file is the context-aware entry point to the exact engines, and
// what both engines share: the job, the incumbent and the node counter;
// their jobs run on the shared pool, solve.Run. The Min*Bisection
// functions remain as uncancellable serial conveniences, the U-bisection
// among them, on the same bisection job runner as SolveBisection; Solve*
// accept a context.Context (deadline or cancellation), report telemetry,
// and — the key contract — mark results from an interrupted search
// Exact=false instead of silently presenting incumbents as optima.

// SolveOptions tune the context-aware solvers. The zero value runs an
// unseeded search on GOMAXPROCS workers.
type SolveOptions struct {
	// Workers is the pool size, ≤ 0 meaning GOMAXPROCS. One worker runs
	// the whole search depth-first, one first job after another. More
	// share one solve.Run queue: an expansion search starts as one job per
	// declared node class (see unrootedStarts) and a bisection as up to 256
	// BFS-prefix jobs (see fanoutDepth), and whenever a worker waits with
	// nothing queued, a busy one gives it its shallowest untried branch
	// (see nodeCounter.donate). The optimum is the same either way; the
	// witness may differ when several are optimal.
	Workers int
	// Bound > 0 seeds the incumbent with a known achievable value (a
	// witness or heuristic boundary); ≤ 0 searches unseeded. A bound
	// below the optimum falls back to an unseeded rerun, so a completed
	// solve is exact either way.
	Bound int
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
	c, w, exact := searchBisection(g, nil, opts.Bound, opts.Workers, mon)
	return BisectionResult{
		Cut: c, Width: w, Exact: exact,
		Explored: mon.Explored(), Pruned: mon.Pruned(), Elapsed: mon.Elapsed(),
	}
}

// SolveEdgeExpansion computes EE(g,k) under ctx. For k ≥ 2 it first
// certifies EE(g, m) for m = 1..k−1, one search each, and prunes with
// those values; Explored and Pruned include them. On cancellation it
// returns a feasible k-set (best incumbent, or the decision-order prefix
// fallback if none was found) with Exact=false.
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
	bound := noBound
	if opts.Bound > 0 {
		bound = opts.Bound
	}
	set, val, exact := prefixSet(k), 0, true
	if k > 0 && k < g.N() {
		s := newExpSearch(g, k, edge, bound, mon)
		searchExpansion(g, []*expSearch{s}, opts.Workers, mon)
		set, val, exact = s.result(g)
	}
	return Result{
		Set: set, Value: val, Exact: exact,
		Explored: mon.Explored(), Pruned: mon.Pruned(), Elapsed: mon.Elapsed(),
	}
}

// fanoutDepth is the BFS-prefix depth at which a bisection run splits
// into jobs: none (one empty-prefix job, the plain depth-first search) on
// one worker or below 16 nodes, where the fan-out costs more than it
// balances; otherwise min(8, n/2), up to 2^8 = 256 jobs. Their order finds
// incumbents sooner than one job split only by donation would.
func fanoutDepth(n, workers int) int {
	if n < 16 || solve.Workers(workers) == 1 {
		return 0
	}
	return min(8, n/2)
}

// metricDonations counts the branches busy workers gave to idle ones.
var metricDonations = obs.NewCounter("exact.donations")

// job is one prefix subproblem of a run: the sides of the first
// len(prefix) nodes of the decision order, in the run's search number
// search (a bisection run has one search, 0). An expansion search has one
// decision order per start, and start names the job's. Both engines run
// their jobs on solve.Run, one private search state per worker.
type job struct {
	search int
	start  int
	prefix []int8
}

// incumbent is the best solution of one search, shared by every worker:
// best is read lock-free on every prune check; improvements take the mutex
// so the value and the witness stay consistent. side[v] reports whether
// node v is in S at the witness. explored/pruned accumulate the search's
// own telemetry (a survey reports them per row; mon holds the solve-wide
// totals).
type incumbent struct {
	best atomic.Int64
	mu   sync.Mutex
	side []bool

	mon      *solve.Monitor
	explored atomic.Int64
	pruned   atomic.Int64
}

func (sb *incumbent) record(val int, assign []int8) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if int64(val) >= sb.best.Load() {
		return // someone else got there first
	}
	sb.best.Store(int64(val))
	if sb.side == nil {
		sb.side = make([]bool, len(assign))
	}
	for v, a := range assign {
		sb.side[v] = a == sideS
	}
	sb.mon.SetIncumbent(int64(val))
}

// nodeCounter is the part of a worker's search state that both engines
// share and the job runner reads: the decision order and the sides decided
// so far, cooperative cancellation and telemetry, and donation.
//
// explored/pruned counts are batched locally and flushed every
// solve.TickStride nodes into mon (the solve-wide totals) and sb (the
// totals of the search being run, repointed per job as one state serves
// every search of a run). tickBudget counts DOWN from solve.TickStride so
// the per-node fast path is one decrement and one branch; after a stop it
// stays pinned at zero, steering every later tick into the latched slow
// path.
//
// Each engine's depth-first search sets owed[d] while it searches the
// first branch at order index d and still owes the second, and clears it
// before taking the second; a flush that finds a worker waiting in q
// donates the shallowest owed branch of the running job.
type nodeCounter struct {
	order  []int32 // decision order (BFS or maximum-adjacency order keeps edges local)
	assign []int8  // per node: its side, or unassigned

	mon        *solve.Monitor
	sb         *incumbent
	tickBudget int32
	prunedTick int32
	stopped    bool

	q    *solve.Queue[job]
	job  job // the job being run
	owed []bool
}

func newNodeCounter(order []int32) nodeCounter {
	c := nodeCounter{
		order:      order,
		assign:     make([]int8, len(order)),
		owed:       make([]bool, len(order)),
		tickBudget: solve.TickStride,
	}
	for i := range c.assign {
		c.assign[i] = unassigned
	}
	return c
}

// tickNode counts one explored search node and reports whether the search
// should stop. The monitor's atomic stop flag is only polled when the
// stride budget runs out; once seen, stopped latches so the remaining
// unwind is pure returns.
func (c *nodeCounter) tickNode() bool {
	c.tickBudget--
	if c.tickBudget <= 0 {
		c.flushTicks()
		return c.stopped
	}
	return false
}

// flushTicks drains the local counters into the current search and the
// monitor, sampling the stop flag, and donates a branch if a worker waits
// for one. After a stop it only re-pins the budget: the drained totals
// were flushed when the stop was first seen and no nodes are explored past
// it.
func (c *nodeCounter) flushTicks() {
	if c.stopped {
		c.tickBudget = 0
		return
	}
	e, p := int64(solve.TickStride-c.tickBudget), int64(c.prunedTick)
	c.tickBudget, c.prunedTick = solve.TickStride, 0
	if e != 0 || p != 0 {
		c.sb.explored.Add(e)
		c.sb.pruned.Add(p)
	}
	if c.mon.Tick(e, p) {
		c.stopped = true
		c.tickBudget = 0
		return
	}
	if c.q.Hungry() {
		c.donate()
	}
}

// donate pushes the running job's shallowest owed branch, at order index
// d, as a job of the same search: the sides of order[:d] as they stand and,
// at d, the side not being searched. It clears owed[d], so the search
// skips that branch when its first one returns.
func (c *nodeCounter) donate() {
	for d := len(c.job.prefix); d < len(c.owed); d++ {
		if !c.owed[d] {
			continue
		}
		prefix := make([]int8, d+1)
		for i := range prefix {
			prefix[i] = c.assign[c.order[i]]
		}
		prefix[d] = sideS + sideSbar - prefix[d]
		c.owed[d] = false
		c.q.Push(job{search: c.job.search, start: c.job.start, prefix: prefix})
		metricDonations.Inc()
		return
	}
}
