package exact

import (
	"slices"
	"sync/atomic"

	"repro/internal/cut"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/solve"
)

// The expansion engine: every EE/NE search (SolveEdge/NodeExpansion, the
// k-sweeps of ExpansionSurvey, the cluster's SearchExpansionShards) is a
// list of (search, prefix) jobs drained by runExpansionJobs. A prefix fixes
// the decisions on the first nodes of the BFS order; each worker owns one
// expState, reused across every job of every search — a prefix is placed,
// searched, and unplaced, so no per-job allocation or re-initialisation
// happens on the hot path. Before the edge searches of a local run start,
// sweepEdgeTable certifies EE(g, m) for every smaller m on the same job
// runner, so their bound can prune with it.

const (
	edgeExpansion = true
	nodeExpansion = false

	// noBound requests an unseeded search; any non-negative bound is taken
	// as an achievable boundary value.
	noBound = -1
)

// expSearch is one (quantity, k) search of a run: the incumbent every job
// of the search prunes against and records into, the EE(g, m) table its
// edge bound reads (nil for node searches and shard searches), and whether
// any of its jobs was cut short by cancellation (the result is then not a
// certified optimum).
type expSearch struct {
	k          int
	edge       bool
	sb         *sharedExpBound
	table      []int
	incomplete atomic.Bool
}

// newExpSearch starts a search whose incumbent is seeded from bound
// (noBound: one past the trivial maximum of the quantity).
func newExpSearch(g *graph.Graph, k int, edge bool, bound int, mon *solve.Monitor) *expSearch {
	s := &expSearch{k: k, edge: edge, sb: &sharedExpBound{mon: mon}}
	s.sb.best.Store(initialExpBest(g, edge, bound))
	return s
}

// expJob is one prefix subproblem of one search.
type expJob struct {
	s      *expSearch
	prefix []int8
}

// runExpansionJobs drains jobs through a pool of workers (≤ 0:
// GOMAXPROCS). Searches are independent (each has its own incumbent), so
// jobs of several searches share the pool and it load-balances across
// them. On cancellation, jobs not run to completion mark their search
// incomplete; the pool always drains, so the call returns promptly with
// whatever incumbents were found.
func runExpansionJobs(g *graph.Graph, order []int32, jobs []expJob, rootForced bool, workers int, mon *solve.Monitor) {
	runPool(len(jobs), workers, func() func(int) {
		st := newExpState(g, order)
		st.mon = mon
		return func(i int) {
			j := jobs[i]
			if mon.Stopped() {
				j.s.incomplete.Store(true)
				return
			}
			st.sb, st.table = j.s.sb, j.s.table
			for d, side := range j.prefix {
				st.place(int(order[d]), side, j.s.edge)
			}
			// dfsExpansion re-checks the bound first thing, so prefixes that
			// are already prunable cost only the placements.
			dfsExpansion(st, len(j.prefix), j.s.k, j.s.edge, rootForced, j.s.sb)
			for d := len(j.prefix) - 1; d >= 0; d-- {
				st.unplace(int(order[d]), j.s.edge)
			}
			st.flushTicks()
			if st.stopped {
				j.s.incomplete.Store(true)
			}
		}
	})
}

// searchExpansion runs searches (all with 0 < k < n) to completion and
// returns their decision order. The edge table sweep runs first and may
// run some of the searches as its steps; the rest then share one pool.
func searchExpansion(g *graph.Graph, root int, searches []*expSearch, workers int, mon *solve.Monitor) []int32 {
	order := expansionOrder(g, root)
	rest := sweepEdgeTable(g, root, order, searches, workers, mon)
	runSearches(g, order, root >= 0, rest, workers, mon)
	return order
}

// runSearches runs searches to completion on one pool, each split at
// fanoutDepth. A search whose seed undercut its optimum finishes without a
// witness and is rerun unseeded, so a completed search is exact either way.
func runSearches(g *graph.Graph, order []int32, rootForced bool, searches []*expSearch, workers int, mon *solve.Monitor) {
	depth := fanoutDepth(g.N(), workers)
	for len(searches) > 0 {
		var jobs []expJob
		for _, s := range searches {
			for _, p := range expansionPrefixes(g.N(), depth, s.k, rootForced) {
				jobs = append(jobs, expJob{s: s, prefix: p})
			}
		}
		runExpansionJobs(g, order, jobs, rootForced, workers, mon)
		var redo []*expSearch
		for _, s := range searches {
			if s.sb.set == nil && !s.incomplete.Load() {
				s.sb.best.Store(initialExpBest(g, s.edge, noBound))
				redo = append(redo, s)
			}
		}
		searches = redo
	}
}

// sweepEdgeTable is the Russian-doll sweep behind edgeLB's table term.
// For K the largest k of the edge searches, it certifies table[m] =
// EE(g, m) for m = 1 .. K−1 in increasing m, one step at a time, each step
// pruning with the entries before it, and points every edge search at the
// table. A cancelled step leaves its entry 0.
//
// An entry must be the unrooted minimum, so the steps are rooted — at
// root, or at node 0 when root < 0 — only on a graph declared
// vertex-transitive, and unrooted on any other. When the steps have the
// run's root, an edge search of size m is step m itself, with its seed
// and its telemetry. Every other step is a table step: unseeded,
// publishing no incumbent, and counted in the explored/pruned totals of
// the smallest edge search above it. Each step emits one trace event. The
// searches the sweep did not run are returned.
func sweepEdgeTable(g *graph.Graph, root int, order []int32, searches []*expSearch, workers int, mon *solve.Monitor) []*expSearch {
	var edges, rest []*expSearch
	for _, s := range searches {
		if s.edge {
			edges = append(edges, s)
		}
	}
	if len(edges) == 0 {
		return searches
	}
	slices.SortStableFunc(edges, func(a, b *expSearch) int { return a.k - b.k })
	kmax := edges[len(edges)-1].k
	table := make([]int, kmax)
	for _, s := range edges {
		s.table = table
	}
	stepRoot, stepOrder := -1, order
	if g.VertexTransitive() {
		stepRoot = max(root, 0)
	}
	if stepRoot != root {
		stepOrder = expansionOrder(g, stepRoot)
	}
	swept := make(map[*expSearch]bool)
	next := 0 // edges[next] is the smallest edge search with k > m
	for m := 1; m < kmax; m++ {
		var step *expSearch
		for ; edges[next].k <= m; next++ {
			if edges[next].k == m && stepRoot == root && step == nil {
				step = edges[next]
				swept[step] = true
			}
		}
		tableStep := step == nil
		if tableStep {
			step = newExpSearch(g, m, edgeExpansion, noBound, nil)
			step.table = table
		}
		runSearches(g, stepOrder, stepRoot >= 0, []*expSearch{step}, workers, mon)
		if !step.incomplete.Load() {
			table[m] = int(step.sb.best.Load())
		}
		explored := step.sb.explored.Load()
		if tableStep {
			edges[next].sb.explored.Add(explored)
			edges[next].sb.pruned.Add(step.sb.pruned.Load())
		}
		if mon.Tracing() {
			mon.TraceEvent("edge_table", obs.Attrs{"m": m, "value": table[m], "explored": explored})
		}
	}
	for _, s := range searches {
		if !swept[s] {
			rest = append(rest, s)
		}
	}
	return rest
}

// result returns the search's witness, its value and whether it is
// certified. A search cancelled before recording any set returns the
// first k nodes of the decision order (a BFS-connected prefix, so already
// a reasonable set) with its measured boundary.
func (s *expSearch) result(g *graph.Graph, order []int32) ([]int, int, bool) {
	if s.sb.set != nil {
		return s.sb.set, int(s.sb.best.Load()), !s.incomplete.Load()
	}
	set := make([]int, s.k)
	for i := range set {
		set[i] = int(order[i])
	}
	return set, boundary(g, set, s.edge), false
}

// expansionPrefixes enumerates the decisions for the first depth nodes of
// the order that can still complete to a k-set: at most k inclusions, and
// enough nodes left after each exclusion. rootForced pins the first node
// into S. Depth 0 yields the one empty prefix.
func expansionPrefixes(n, depth, k int, rootForced bool) [][]int8 {
	var out [][]int8
	prefix := make([]int8, depth)
	var gen func(idx, inS int)
	gen = func(idx, inS int) {
		if idx == depth {
			out = append(out, append([]int8(nil), prefix...))
			return
		}
		if inS < k {
			prefix[idx] = sideS
			gen(idx+1, inS+1)
		}
		if !(rootForced && idx == 0) && inS+(n-idx-1) >= k {
			prefix[idx] = sideSbar
			gen(idx+1, inS)
		}
	}
	gen(0, 0)
	return out
}

// expansionOrder is the decision order of every expansion search: BFS from
// the forced root when there is one (so the exclude-branch cut at depth 0
// applies to it), plain BFS otherwise.
func expansionOrder(g *graph.Graph, root int) []int32 {
	if root >= 0 {
		return bfsOrderFrom(g, root)
	}
	return bfsOrder(g)
}

// initialExpBest is the starting incumbent: one past the seed bound when
// one is given, otherwise one past the trivial maximum of the quantity.
func initialExpBest(g *graph.Graph, edge bool, bound int) int64 {
	if bound >= 0 {
		return int64(bound) + 1
	}
	if edge {
		return int64(g.M()) + 1
	}
	return int64(g.N()) + 1
}

// boundary measures set directly: its edge boundary C(S,S̄) or its
// neighbor count |N(S)|.
func boundary(g *graph.Graph, set []int, edge bool) int {
	if edge {
		return cut.EdgeBoundary(g, set)
	}
	return len(cut.NodeBoundary(g, set))
}

func checkRoot(g *graph.Graph, root int) {
	if root < 0 || root >= g.N() {
		panic("exact: root out of range")
	}
}

func checkSetSize(g *graph.Graph, k int) {
	if k < 0 || k > g.N() {
		panic("exact: expansion set size out of range")
	}
}

// prefixSet returns the first k node ids, used for the trivial k ∈ {0, N}
// cases where the boundary is empty.
func prefixSet(k int) []int {
	s := make([]int, k)
	for i := range s {
		s[i] = i
	}
	return s
}
