package exact

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/solve"
)

// expState is the incremental machinery of the expansion branch-and-bound
// (EE and NE, §1.3), one per worker of the engine. Nodes are decided
// in a fixed order — into S or out of it — and boundary counters are kept
// current under place/unplace:
//
//	permCut   edges between an S-node and a decided-out node
//	inUnd     edges between an S-node and an undecided node
//	permNbrs  decided-out nodes adjacent to S
//	undWithIn undecided nodes adjacent to S
//
// At a completed leaf (|S| = k) every undecided node is implicitly out, so
// the edge boundary is permCut + inUnd and the node boundary is
// permNbrs + undWithIn — O(1) per leaf, where the previous engine rescanned
// all n nodes and their edges.
//
// Both quantities count each node's edges into S in inNbrs. An edge search
// (placeEdge/unplaceEdge) also counts each node's edges to decided-out
// nodes in outNbrs and files the undecided nodes by in − out in gainHist
// and by in in inHist, which is what edgeLB reads; a node search
// (placeNode/unplaceNode) never touches the edge counters, outNbrs or the
// histograms. Every job unplaces its whole prefix, returning inNbrs to
// zero, so one state serves jobs of either kind back to back.
type expState struct {
	g      *graph.Graph
	order  []int32
	assign []int8
	inNbrs []int32 // per node: number of incident edges whose other end is in S
	// Edge searches only: outNbrs counts, per node, the incident edges whose
	// other end is decided out, gainHist[maxDeg+in−out] the undecided nodes
	// by inNbrs − outNbrs and inHist[in] the undecided nodes by inNbrs
	// (parallel edges count with multiplicity).
	outNbrs  []int32
	gainHist []int32
	inHist   []int32
	maxDeg   int
	// table[m] is EE(g, m) for the set sizes the current search's sweep
	// has certified, 0 where nothing is known (see edgeLB). It is shared
	// read-only by every worker and repointed per job, like sb.
	table []int

	chosen    int
	permCut   int
	inUnd     int
	permNbrs  int
	undWithIn int

	// Cooperative cancellation + telemetry (see bbState.tickNode): local
	// counters flushed every solve.TickStride explored nodes into mon
	// (the solve-wide totals) and sb (the per-search totals a survey
	// reports per row). sb is repointed per job, as one state serves
	// every search of a run. tickBudget counts DOWN from
	// solve.TickStride so the per-node fast path is one decrement and one
	// branch; after a stop it stays pinned at zero, steering every later
	// tick into the latched slow path.
	mon        *solve.Monitor
	sb         *sharedExpBound
	tickBudget int32
	prunedTick int32
	stopped    bool
}

// tickNode counts one explored node; the stop flag is polled only when the
// stride budget runs out and then latches.
func (st *expState) tickNode() bool {
	st.tickBudget--
	if st.tickBudget <= 0 {
		st.flushTicks()
		return st.stopped
	}
	return false
}

// flushTicks drains the local counters into the current search and the
// monitor, sampling the stop flag. After a stop it only re-pins the
// budget: the drained totals were flushed when the stop was first seen and
// no nodes are explored past it.
func (st *expState) flushTicks() {
	if st.stopped {
		st.tickBudget = 0
		return
	}
	e, p := int64(solve.TickStride-st.tickBudget), int64(st.prunedTick)
	st.tickBudget, st.prunedTick = solve.TickStride, 0
	if st.sb != nil && (e != 0 || p != 0) {
		st.sb.explored.Add(e)
		st.sb.pruned.Add(p)
	}
	if st.mon.Tick(e, p) {
		st.stopped = true
		st.tickBudget = 0
	}
}

func newExpState(g *graph.Graph, order []int32) *expState {
	maxDeg := g.MaxDegree()
	st := &expState{
		g:        g,
		order:    order,
		assign:   make([]int8, g.N()),
		inNbrs:   make([]int32, g.N()),
		outNbrs:  make([]int32, g.N()),
		gainHist: make([]int32, 2*maxDeg+1),
		inHist:   make([]int32, maxDeg+1),
		maxDeg:   maxDeg,

		tickBudget: solve.TickStride,
	}
	for i := range st.assign {
		st.assign[i] = unassigned
	}
	// Every node undecided, in = out = 0.
	st.gainHist[maxDeg] = int32(g.N())
	st.inHist[0] = int32(g.N())
	return st
}

func (st *expState) place(v int, s int8, edge bool) {
	if edge {
		st.placeEdge(v, s)
	} else {
		st.placeNode(v, s)
	}
}

func (st *expState) unplace(v int, edge bool) {
	if edge {
		st.unplaceEdge(v)
	} else {
		st.unplaceNode(v)
	}
}

// placeEdge decides the currently undecided node v for an edge-boundary
// search. Placements must be undone in LIFO order (see unplaceEdge): the
// counter updates assume the rest of the decided set is exactly as it was
// at place time.
func (st *expState) placeEdge(v int, s int8) {
	st.gainHist[st.gain(int32(v))]--
	st.inHist[st.inNbrs[v]]--
	if s == sideS {
		for _, u := range st.g.Neighbors(v) {
			st.inNbrs[u]++
			switch st.assign[u] {
			case unassigned:
				st.inUnd++
				st.moveGain(u, +1)
				st.moveIn(u, +1)
			case sideS:
				st.inUnd-- // the edge was S(u)–undecided(v); now internal
			default:
				st.permCut++
			}
		}
		st.chosen++
	} else {
		for _, u := range st.g.Neighbors(v) {
			st.outNbrs[u]++
			switch st.assign[u] {
			case unassigned:
				st.moveGain(u, -1)
			case sideS:
				st.inUnd--
				st.permCut++
			}
		}
	}
	st.assign[v] = s
}

// unplaceEdge reverses the most recent placeEdge of v.
func (st *expState) unplaceEdge(v int) {
	s := st.assign[v]
	st.assign[v] = unassigned
	if s == sideS {
		st.chosen--
		for _, u := range st.g.Neighbors(v) {
			st.inNbrs[u]--
			switch st.assign[u] {
			case unassigned:
				st.inUnd--
				st.moveGain(u, -1)
				st.moveIn(u, -1)
			case sideS:
				st.inUnd++
			default:
				st.permCut--
			}
		}
	} else {
		for _, u := range st.g.Neighbors(v) {
			st.outNbrs[u]--
			switch st.assign[u] {
			case unassigned:
				st.moveGain(u, +1)
			case sideS:
				st.inUnd++
				st.permCut--
			}
		}
	}
	st.gainHist[st.gain(int32(v))]++
	st.inHist[st.inNbrs[v]]++
}

// gain is u's gainHist bucket: maxDeg + in(u) − out(u), where in/out count
// u's edges to S and to decided-out nodes.
func (st *expState) gain(u int32) int {
	return st.maxDeg + int(st.inNbrs[u]-st.outNbrs[u])
}

// moveGain re-files the undecided node u after its in − out changed by
// delta.
func (st *expState) moveGain(u int32, delta int) {
	b := st.gain(u)
	st.gainHist[b-delta]--
	st.gainHist[b]++
}

// moveIn re-files the undecided node u in inHist after its in changed by
// delta.
func (st *expState) moveIn(u int32, delta int32) {
	in := st.inNbrs[u]
	st.inHist[in-delta]--
	st.inHist[in]++
}

// placeNode decides the currently undecided node v for a neighbor-set
// search. Out-placements are O(1): only v's own membership in the
// neighbor-set counters changes.
func (st *expState) placeNode(v int, s int8) {
	if s == sideS {
		if st.inNbrs[v] > 0 {
			st.undWithIn--
		}
		for _, u := range st.g.Neighbors(v) {
			st.inNbrs[u]++
			if st.inNbrs[u] == 1 {
				switch st.assign[u] {
				case unassigned:
					st.undWithIn++
				case sideSbar:
					st.permNbrs++
				}
			}
		}
		st.chosen++
	} else if st.inNbrs[v] > 0 {
		st.undWithIn--
		st.permNbrs++
	}
	st.assign[v] = s
}

// unplaceNode reverses the most recent placeNode of v.
func (st *expState) unplaceNode(v int) {
	s := st.assign[v]
	st.assign[v] = unassigned
	if s == sideS {
		st.chosen--
		for _, u := range st.g.Neighbors(v) {
			st.inNbrs[u]--
			if st.inNbrs[u] == 0 {
				switch st.assign[u] {
				case unassigned:
					st.undWithIn--
				case sideSbar:
					st.permNbrs--
				}
			}
		}
		if st.inNbrs[v] > 0 {
			st.undWithIn++
		}
	} else if st.inNbrs[v] > 0 {
		st.undWithIn++
		st.permNbrs--
	}
}

// edgeLB is an admissible lower bound on the final edge boundary, exact at
// a leaf: the larger of two bounds on every completion of S by a set F of
// m = k−chosen undecided nodes, each read off a histogram from the top in
// O(maxDeg).
//
// The gain bound: the completion ends at permCut + inUnd + Σ_F (out u −
// in u + e(u, U∖F)), U the undecided nodes — each u in F turns its in u
// edges to S internal, adds its out u edges to decided-out nodes, and its
// edges to the undecided nodes left out become boundary. Dropping the
// non-negative e(u, U∖F) and taking the m largest in − out over U
// (gainHist) bounds it from below.
//
// The Russian-doll bound (Verfaillie, Lemaître and Schiex, 1996): the same
// completion ends at permCut + inUnd − 2·Σ_F in u + ∂_G(F), and ∂_G(F) is
// at least EE(g, m), which the sweep before this search certified into
// table[m]. Taking the m largest in over U (inHist) bounds it from below.
// It is skipped while table[m] is unknown (0), where it never beats the
// gain bound.
func (st *expState) edgeLB(k int) int {
	base := st.permCut + st.inUnd
	m := k - st.chosen
	lb := base
	for b, r := len(st.gainHist)-1, m; r > 0 && b >= 0; b-- {
		c := min(int(st.gainHist[b]), r)
		lb -= c * (b - st.maxDeg)
		r -= c
	}
	if m < len(st.table) && st.table[m] > 0 {
		doll := base + st.table[m]
		for in, r := len(st.inHist)-1, m; r > 0 && in > 0; in-- {
			c := min(int(st.inHist[in]), r)
			doll -= 2 * c * in
			r -= c
		}
		lb = max(lb, doll)
	}
	return lb
}

// nodeLB is the node-boundary analogue: placing a future node into S
// removes at most that node itself from permNbrs+undWithIn, and
// out-placements only move nodes from undWithIn to permNbrs.
func (st *expState) nodeLB(k int) int {
	lb := st.permNbrs + st.undWithIn - (k - st.chosen)
	if lb < st.permNbrs {
		lb = st.permNbrs
	}
	return lb
}

// sharedExpBound is the incumbent of one expansion search, shared by every
// worker. best is read lock-free on every prune check; improvements take
// the mutex so the bound and the witness set stay consistent.
// explored/pruned accumulate this search's telemetry (a survey reports
// them per row).
type sharedExpBound struct {
	best atomic.Int64
	mu   sync.Mutex
	set  []int

	mon      *solve.Monitor
	explored atomic.Int64
	pruned   atomic.Int64
}

func (sb *sharedExpBound) record(val int, assign []int8) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if int64(val) >= sb.best.Load() {
		return // someone else got there first
	}
	sb.best.Store(int64(val))
	set := sb.set[:0]
	for v, a := range assign {
		if a == sideS {
			set = append(set, v)
		}
	}
	sb.set = set
	sb.mon.SetIncumbent(int64(val))
}

// dfsEdgeExpansion explores all decisions for order[idx:] given the prefix
// already placed in st, recording edge-boundary improvements over sb.best.
// rootForced skips the exclude branch at idx 0 (root-forced searches).
func dfsEdgeExpansion(st *expState, idx, k int, rootForced bool, sb *sharedExpBound) {
	if st.tickNode() {
		return
	}
	if st.edgeLB(k) >= int(sb.best.Load()) {
		st.prunedTick++
		return
	}
	if st.chosen == k {
		sb.record(st.permCut+st.inUnd, st.assign)
		return
	}
	n := st.g.N()
	if idx == n || st.chosen+(n-idx) < k {
		return
	}
	v := int(st.order[idx])

	st.placeEdge(v, sideS)
	dfsEdgeExpansion(st, idx+1, k, rootForced, sb)
	st.unplaceEdge(v)

	if rootForced && idx == 0 {
		return
	}
	st.placeEdge(v, sideSbar)
	dfsEdgeExpansion(st, idx+1, k, rootForced, sb)
	st.unplaceEdge(v)
}

// dfsNodeExpansion is the neighbor-set analogue of dfsEdgeExpansion.
func dfsNodeExpansion(st *expState, idx, k int, rootForced bool, sb *sharedExpBound) {
	if st.tickNode() {
		return
	}
	if st.nodeLB(k) >= int(sb.best.Load()) {
		st.prunedTick++
		return
	}
	if st.chosen == k {
		sb.record(st.permNbrs+st.undWithIn, st.assign)
		return
	}
	n := st.g.N()
	if idx == n || st.chosen+(n-idx) < k {
		return
	}
	v := int(st.order[idx])

	st.placeNode(v, sideS)
	dfsNodeExpansion(st, idx+1, k, rootForced, sb)
	st.unplaceNode(v)

	if rootForced && idx == 0 {
		return
	}
	st.placeNode(v, sideSbar)
	dfsNodeExpansion(st, idx+1, k, rootForced, sb)
	st.unplaceNode(v)
}

func dfsExpansion(st *expState, idx, k int, edge, rootForced bool, sb *sharedExpBound) {
	if edge {
		dfsEdgeExpansion(st, idx, k, rootForced, sb)
	} else {
		dfsNodeExpansion(st, idx, k, rootForced, sb)
	}
}
