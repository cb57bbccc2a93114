package exact

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/cut"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/solve"
)

// The expansion engine: every EE/NE search (SolveEdge/NodeExpansion and
// the k-sweeps of ExpansionSurveyWithOptions) starts as one job per start
// (see start), drained by runExpansionJobs, and an idle worker is fed by a
// busy one donating its shallowest untried branch as a prefix job of the
// same search and start. A prefix fixes the decisions on the first nodes
// of the start's order; each worker owns one expState, reused across every
// job of every search — a prefix is placed, searched, and unplaced, so no
// per-job allocation or re-initialisation happens on the hot path.
// Before the edge searches of a run start, sweepEdgeTable certifies
// EE(g, m) for every smaller m on the same job runner, so their bound can
// prune with it.

const (
	edgeExpansion = true
	nodeExpansion = false

	// noBound requests an unseeded search; any non-negative bound is taken
	// as an achievable boundary value.
	noBound = -1
)

// start is one decision order of a search, searched as one job: the job's
// prefix decides every node before index forced out, the node at forced
// goes into S with no exclude branch, and the rest are decided in order
// (BFS order for a node search, maximum-adjacency order for an edge
// search; see edgeStarts). forced is −1 when nothing is forced (and the
// prefix is empty).
type start struct {
	order  []int32
	forced int
	prefix []int8
}

// unrootedStarts returns the starts of a node search over all k-sets. On
// a graph that declares no node classes that is one start in plain BFS
// order from node 0, nothing forced. Otherwise there is one start per
// class j (see graph.DeclareOrbits): it decides the nodes of the classes
// below j out, forces j's representative in and decides the rest in BFS
// order from it. Together they search every optimum up to automorphism:
// if j is the lowest class an optimal set S meets, an automorphism that
// maps every class onto itself and carries one of S's class-j nodes onto
// the representative carries S onto an equally good set that start j
// covers. On a one-class graph this is the one search rooted at node 0.
// An edge search runs the same starts, reordered by edgeStarts.
func unrootedStarts(g *graph.Graph) []start {
	if g.Orbits() == 0 {
		return []start{{order: bfsOrder(g), forced: -1}}
	}
	n := g.N()
	class, reps := make([]int, n), make([]int, g.Orbits())
	for j := range reps {
		reps[j] = -1
	}
	for v := n - 1; v >= 0; v-- {
		class[v] = g.Orbit(v)
		reps[class[v]] = v
	}
	out := make([]int8, n)
	for i := range out {
		out[i] = sideSbar
	}
	starts := make([]start, len(reps))
	for j, rep := range reps {
		if rep < 0 {
			panic(fmt.Sprintf("exact: declared node class %d has no node", j))
		}
		order := make([]int32, 0, n)
		for v, c := range class {
			if c < j {
				order = append(order, int32(v))
			}
		}
		forced := len(order)
		for _, v := range bfsOrderFrom(g, rep) {
			if class[v] >= j {
				order = append(order, v)
			}
		}
		starts[j] = start{order: order, forced: forced, prefix: out[:forced]}
	}
	return starts
}

// edgeStarts returns the starts of an edge search: starts (unrootedStarts'
// result, left as it is) with the nodes after each forced node, or after
// node 0 when nothing is forced, put in maximum-adjacency order. Deciding
// next the node with the most edges into the nodes already decided fills
// in the in/out counts edgeLB reads sooner than BFS order does: EE(W16,12)
// explores 37.6K nodes instead of 96.2K. The bisection and the node
// searches keep BFS order.
func edgeStarts(g *graph.Graph, starts []start) []start {
	out := make([]start, len(starts))
	for i, s := range starts {
		s.order = maxAdjacencyOrder(g, s.order, max(s.forced, 0)+1)
		out[i] = s
	}
	return out
}

// maxAdjacencyOrder returns a copy of order (every node of g once) that
// keeps its first fixed nodes in place and puts the rest in
// maximum-adjacency order (maximum cardinality search; Tarjan and
// Yannakakis, 1984): each next node is the remaining one with the most
// edges into the nodes before it, parallel edges counted, ties going to
// the one earlier in order. An indexed heap over the remaining nodes makes
// it O((n + m) log n).
func maxAdjacencyOrder(g *graph.Graph, order []int32, fixed int) []int32 {
	n := len(order)
	rank := make([]int32, g.N())
	for r, v := range order {
		rank[v] = int32(r)
	}
	h := adjacencyHeap{items: make([]int32, 0, n-fixed), links: make([]int32, n), at: make([]int32, n)}
	for r := range n {
		h.at[r] = -1
		if r >= fixed {
			h.at[r] = int32(len(h.items))
			h.items = append(h.items, int32(r))
		}
	}
	out := append(make([]int32, 0, n), order[:fixed]...)
	for _, v := range out {
		for _, w := range g.Neighbors(int(v)) {
			if h.at[rank[w]] >= 0 {
				h.links[rank[w]]++
			}
		}
	}
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h.items) > 0 {
		v := order[h.pop()]
		out = append(out, v)
		for _, w := range g.Neighbors(int(v)) {
			if i := h.at[rank[w]]; i >= 0 {
				h.links[rank[w]]++
				h.up(int(i))
			}
		}
	}
	return out
}

// adjacencyHeap is maxAdjacencyOrder's binary heap over the ranks
// (positions in order) of the nodes not yet placed: the most links into
// the placed nodes first, the lower rank on a tie. at[r] is rank r's index
// in items, −1 once it is placed. Links only grow, so a rank only moves up.
type adjacencyHeap struct {
	items []int32
	links []int32
	at    []int32
}

// before reports whether rank a leaves the heap before rank b.
func (h *adjacencyHeap) before(a, b int32) bool {
	return h.links[a] > h.links[b] || h.links[a] == h.links[b] && a < b
}

func (h *adjacencyHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.at[h.items[i]], h.at[h.items[j]] = int32(i), int32(j)
}

func (h *adjacencyHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(h.items[i], h.items[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *adjacencyHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.items) {
			return
		}
		if c+1 < len(h.items) && h.before(h.items[c+1], h.items[c]) {
			c++
		}
		if !h.before(h.items[c], h.items[i]) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// pop removes and returns the first rank.
func (h *adjacencyHeap) pop() int32 {
	r, last := h.items[0], len(h.items)-1
	h.swap(0, last)
	h.items = h.items[:last]
	h.at[r] = -1
	h.down(0)
	return r
}

// expSearch is one (quantity, k) search of a run: its starts, the
// incumbent every job of the search prunes against and records into, the
// seed set it started from (nil if unseeded), the EE(g, m) table its edge
// bound reads (nil for node searches), and whether any of its jobs was
// cut short by cancellation (the result is then not a certified optimum).
type expSearch struct {
	k          int
	edge       bool
	starts     []start
	seed       []int
	sb         *incumbent
	table      []int
	incomplete atomic.Bool
}

// newExpSearch starts a search whose incumbent is seeded from bound
// (noBound: one past the trivial maximum of the quantity).
func newExpSearch(g *graph.Graph, k int, edge bool, bound int, mon *solve.Monitor) *expSearch {
	s := &expSearch{k: k, edge: edge, sb: &incumbent{mon: mon}}
	s.sb.best.Store(initialExpBest(g, edge, bound))
	return s
}

// seedWith seeds s with set if it is k distinct nodes of g: the incumbent
// starts one past the set's measured boundary, as a bound of that value
// would start it, and a search cancelled before it records a set returns
// this one. Any other set leaves s as it was.
func (s *expSearch) seedWith(g *graph.Graph, set []int) {
	if len(set) != s.k {
		return
	}
	seen := make([]bool, g.N())
	for _, v := range set {
		if v < 0 || v >= g.N() || seen[v] {
			return
		}
		seen[v] = true
	}
	s.seed = slices.Clone(set)
	s.sb.best.Store(initialExpBest(g, s.edge, boundary(g, set, s.edge)))
}

// runExpansionJobs drains jobs, each naming its search by index into
// searches and its start by index into the search's starts, through a
// pool of workers (≤ 0: GOMAXPROCS). Searches are independent (each has
// its own incumbent), so jobs of several searches share the pool and it
// load-balances across them. On cancellation, jobs not run to completion
// mark their search incomplete; the pool always drains, so the call
// returns promptly with whatever incumbents were found.
func runExpansionJobs(g *graph.Graph, searches []*expSearch, jobs []job, workers int, mon *solve.Monitor) {
	solve.Run(jobs, workers, func(_ int, q *solve.Queue[job]) func(job) {
		st := newExpState(g, searches[0].starts[0].order)
		st.mon, st.q = mon, q
		return func(j job) {
			st.job = j
			s := searches[j.search]
			if mon.Stopped() {
				s.incomplete.Store(true)
				return
			}
			from := s.starts[j.start]
			st.sb, st.table, st.order = s.sb, s.table, from.order
			for d, side := range j.prefix {
				st.place(int(st.order[d]), side, s.edge)
			}
			// dfsExpansion re-checks the bound first thing, so prefixes that
			// are already prunable cost only the placements.
			dfsExpansion(st, len(j.prefix), s.k, s.edge, from.forced, s.sb)
			for d := len(j.prefix) - 1; d >= 0; d-- {
				st.unplace(int(st.order[d]), s.edge)
			}
			st.flushTicks()
			if st.stopped {
				s.incomplete.Store(true)
			}
		}
	})
}

// startJobs returns the first jobs of searches: one per start of each, in
// order.
func startJobs(searches []*expSearch) []job {
	var jobs []job
	for i, s := range searches {
		for j, from := range s.starts {
			jobs = append(jobs, job{search: i, start: j, prefix: from.prefix})
		}
	}
	return jobs
}

// searchExpansion runs searches (all with 0 < k < n) over all sets, from
// the unrooted starts, reordered once for the edge searches. The edge
// table sweep runs first and may run some of the searches as its steps;
// the rest then share one pool.
func searchExpansion(g *graph.Graph, searches []*expSearch, workers int, mon *solve.Monitor) {
	if len(searches) == 0 {
		return
	}
	starts := unrootedStarts(g)
	var edge []start
	for _, s := range searches {
		s.starts = starts
		if s.edge {
			if edge == nil {
				edge = edgeStarts(g, starts)
			}
			s.starts = edge
		}
	}
	rest := sweepEdgeTable(g, searches, workers, mon)
	runSearches(g, rest, workers, mon)
}

// runSearches runs searches to completion on one pool, each starting as
// its start jobs. A search whose SolveOptions.Bound undercut its optimum
// finishes without a witness and is rerun unseeded, so a completed search
// is exact either way. (A survey's seed set is measured, so its bound is
// always achievable.)
func runSearches(g *graph.Graph, searches []*expSearch, workers int, mon *solve.Monitor) {
	for len(searches) > 0 {
		runExpansionJobs(g, searches, startJobs(searches), workers, mon)
		var redo []*expSearch
		for _, s := range searches {
			if s.sb.side == nil && !s.incomplete.Load() {
				s.sb.best.Store(initialExpBest(g, s.edge, noBound))
				s.seed = nil
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
// Every step runs from the searches' starts. An edge search of size m is
// step m itself, with its seed and its telemetry. Every other step is a
// table step: unseeded, publishing no incumbent, and counted in the
// explored/pruned totals of the smallest edge search above it. Each step
// emits one trace event. The searches the sweep did not run are returned.
func sweepEdgeTable(g *graph.Graph, searches []*expSearch, workers int, mon *solve.Monitor) []*expSearch {
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
	swept := make(map[*expSearch]bool)
	next := 0 // edges[next] is the smallest edge search with k > m
	for m := 1; m < kmax; m++ {
		var step *expSearch
		for ; edges[next].k <= m; next++ {
			if edges[next].k == m && step == nil {
				step = edges[next]
				swept[step] = true
			}
		}
		tableStep := step == nil
		if tableStep {
			step = newExpSearch(g, m, edgeExpansion, noBound, nil)
			step.table, step.starts = table, edges[0].starts
		}
		runSearches(g, []*expSearch{step}, workers, mon)
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
// certified. A search cancelled before recording any set returns its seed
// set, or, unseeded, the first k nodes of its first start's order (a
// connected prefix on a connected graph, in BFS or maximum-adjacency order,
// so already a reasonable set), with its measured boundary.
func (s *expSearch) result(g *graph.Graph) ([]int, int, bool) {
	if s.sb.side != nil {
		set := make([]int, 0, s.k)
		for v, in := range s.sb.side {
			if in {
				set = append(set, v)
			}
		}
		return set, int(s.sb.best.Load()), !s.incomplete.Load()
	}
	set := s.seed
	if set == nil {
		set = make([]int, s.k)
		for i := range set {
			set[i] = int(s.starts[0].order[i])
		}
	}
	return set, boundary(g, set, s.edge), false
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
