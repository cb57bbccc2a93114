// Package exact computes exact optima for the quantities the paper bounds:
// minimum bisections (BW, §1.2), minimum cuts bisecting a node subset
// (U-bisection width, §2.1), and minimum edge/node expansion over sets of a
// given size (EE and NE, §1.3).
//
// All solvers are branch-and-bound searches with admissible lower bounds.
// They are exponential in the worst case and intended for the small networks
// on which the experiments pin exact values (a few dozen nodes); larger
// networks are handled by package heuristic (upper bounds) and by the
// paper's constructions and certified lower bounds.
//
// Bisection and expansion each have one engine: a job runner that splits
// the search at a BFS prefix into independent subproblems and drains them
// over a worker pool, every worker reusing one search state and pruning
// against one shared incumbent. A serial solve is one worker running one
// empty-prefix job. The expansion engine also takes achievable upper-bound
// seeds (witness or greedy sets) and batches whole k-sweeps
// (ExpansionSurveyWithOptions) over one pool. An edge search of size k
// first certifies EE(g, m) for every m < k and prunes with that table
// (Russian-doll search).
package exact

import (
	"sync"
	"sync/atomic"

	"repro/internal/cut"
	"repro/internal/graph"
	"repro/internal/solve"
)

const (
	unassigned = int8(-1)
	sideS      = int8(0)
	sideSbar   = int8(1)
)

// bbState is the shared machinery of the bisection branch-and-bound: nodes
// are assigned to sides in a fixed order, and the admissible bound
//
//	currentCut + Σ_{v unassigned} min(assignedNbrs_S(v), assignedNbrs_S̄(v))
//
// never overestimates the final capacity, because each unassigned node must
// eventually cut at least that many of its edges to already-assigned nodes,
// and those edge sets are disjoint across unassigned nodes.
type bbState struct {
	g       *graph.Graph
	order   []int32 // assignment order (BFS order keeps edges local)
	assign  []int8
	cntS    []int32 // per node: assigned neighbors in S
	cntSbar []int32 // per node: assigned neighbors in S̄
	curCut  int
	minSum  int // Σ over unassigned of min(cntS, cntSbar)
	sizeS   int
	sizeT   int

	// Cooperative cancellation + telemetry: explored/pruned counts are
	// batched locally and flushed to mon every solve.TickStride nodes.
	// tickBudget counts DOWN from solve.TickStride so the per-node fast
	// path is one decrement and one branch; after a stop it stays pinned
	// at zero, steering every later tick into the latched slow path.
	mon        *solve.Monitor
	tickBudget int32
	prunedTick int32
	stopped    bool
}

// tickNode counts one explored search node and reports whether the search
// should stop. The monitor's atomic stop flag is only polled when the
// stride budget runs out (every solve.TickStride nodes); once seen,
// stopped latches so the remaining unwind is pure returns.
func (st *bbState) tickNode() bool {
	st.tickBudget--
	if st.tickBudget <= 0 {
		st.flushTicks()
		return st.stopped
	}
	return false
}

// flushTicks drains the local counters into the monitor and samples the
// stop flag. After a stop it only re-pins the budget: the drained totals
// were flushed when the stop was first seen and no nodes are explored
// past it.
func (st *bbState) flushTicks() {
	if st.stopped {
		st.tickBudget = 0
		return
	}
	e, p := int64(solve.TickStride-st.tickBudget), int64(st.prunedTick)
	st.tickBudget, st.prunedTick = solve.TickStride, 0
	if st.mon.Tick(e, p) {
		st.stopped = true
		st.tickBudget = 0
	}
}

func newBBState(g *graph.Graph, order []int32) *bbState {
	st := &bbState{
		g:       g,
		order:   order,
		assign:  make([]int8, g.N()),
		cntS:    make([]int32, g.N()),
		cntSbar: make([]int32, g.N()),

		tickBudget: solve.TickStride,
	}
	for i := range st.assign {
		st.assign[i] = unassigned
	}
	return st
}

// bfsOrder returns a BFS order of all nodes, sweeping components in node-id
// order.
func bfsOrder(g *graph.Graph) []int32 {
	if g.N() == 0 {
		return nil
	}
	return bfsOrderFrom(g, 0)
}

// bfsOrderFrom returns a BFS order starting at root, covering remaining
// components afterwards in node-id order.
func bfsOrderFrom(g *graph.Graph, root int) []int32 {
	n := g.N()
	order := make([]int32, 0, n)
	seen := make([]bool, n)
	seen[root] = true
	queue := []int32{int32(root)}
	for start := 0; ; start++ {
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			order = append(order, v)
			for _, w := range g.Neighbors(int(v)) {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		for ; start < n && seen[start]; start++ {
		}
		if start == n {
			return order
		}
		seen[start] = true
		queue = append(queue[:0], int32(start))
	}
}

func minInt32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// place assigns node v to side s and updates the incremental quantities.
func (st *bbState) place(v int, s int8) {
	// v stops contributing to minSum.
	st.minSum -= int(minInt32(st.cntS[v], st.cntSbar[v]))
	st.assign[v] = s
	if s == sideS {
		st.sizeS++
		st.curCut += int(st.cntSbar[v])
	} else {
		st.sizeT++
		st.curCut += int(st.cntS[v])
	}
	for _, u := range st.g.Neighbors(v) {
		if st.assign[u] != unassigned {
			continue
		}
		old := minInt32(st.cntS[u], st.cntSbar[u])
		if s == sideS {
			st.cntS[u]++
		} else {
			st.cntSbar[u]++
		}
		st.minSum += int(minInt32(st.cntS[u], st.cntSbar[u]) - old)
	}
}

// unplace reverses place.
func (st *bbState) unplace(v int, s int8) {
	for _, u := range st.g.Neighbors(v) {
		if st.assign[u] != unassigned {
			continue
		}
		old := minInt32(st.cntS[u], st.cntSbar[u])
		if s == sideS {
			st.cntS[u]--
		} else {
			st.cntSbar[u]--
		}
		st.minSum += int(minInt32(st.cntS[u], st.cntSbar[u]) - old)
	}
	st.assign[v] = unassigned
	if s == sideS {
		st.sizeS--
		st.curCut -= int(st.cntSbar[v])
	} else {
		st.sizeT--
		st.curCut -= int(st.cntS[v])
	}
	st.minSum += int(minInt32(st.cntS[v], st.cntSbar[v]))
}

// sharedBound is the incumbent of one bisection search, shared by every
// worker: best is read lock-free on every prune check; improvements take
// the mutex to update both the bound and the witness side consistently.
type sharedBound struct {
	best atomic.Int64
	mu   sync.Mutex
	side []bool
	mon  *solve.Monitor
}

func (sb *sharedBound) record(cur int, assign []int8) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if int64(cur) >= sb.best.Load() {
		return // someone else got there first
	}
	sb.best.Store(int64(cur))
	side := make([]bool, len(assign))
	for v, a := range assign {
		side[v] = a == sideS
	}
	sb.side = side
	sb.mon.SetIncumbent(int64(cur))
}

// dfs decides order[idx:] given the placements before idx, recording every
// bisection that beats sb. Neither side may exceed half nodes, and the
// first node is fixed in S (the two sides are symmetric).
func (st *bbState) dfs(idx, half int, sb *sharedBound) {
	if st.tickNode() {
		return
	}
	if st.curCut+st.minSum >= int(sb.best.Load()) {
		st.prunedTick++
		return
	}
	if idx == st.g.N() {
		sb.record(st.curCut, st.assign)
		return
	}
	v := int(st.order[idx])
	// Try the side with fewer cut edges first for faster incumbents.
	first, second := sideS, sideSbar
	if st.cntSbar[v] < st.cntS[v] {
		first, second = sideSbar, sideS
	}
	for _, s := range []int8{first, second} {
		if s == sideS && st.sizeS >= half || s == sideSbar && (st.sizeT >= half || idx == 0) {
			continue
		}
		st.place(v, s)
		st.dfs(idx+1, half, sb)
		st.unplace(v, s)
	}
}

// MinBisection returns a minimum bisection of g and its capacity BW(g),
// searched on one worker. The initial incumbent is the balanced
// prefix/suffix split in BFS order, which is already a decent cut on
// layered networks.
func MinBisection(g *graph.Graph) (*cut.Cut, int) {
	return MinBisectionWithBound(g, 0)
}

// MinBisectionWithBound is MinBisection seeded with a known achievable upper
// bound (the capacity of some bisection, e.g. from package heuristic). A
// tighter seed prunes more. If bound is not achievable the function falls
// back to an unseeded search, so the result is the true optimum either way.
func MinBisectionWithBound(g *graph.Graph, bound int) (*cut.Cut, int) {
	c, w, _ := searchBisection(g, bound, 1, nil)
	return c, w
}

// searchBisection is the bisection engine behind MinBisection* and
// SolveBisection: the prefix jobs of bisectionPrefixes drained by
// workers goroutines (≤ 0: GOMAXPROCS), each reusing one bbState, all
// pruning against one incumbent seeded with the BFS-prefix cut or with
// bound > 0, whichever is smaller. The flag reports whether the search
// ran to completion; a stopped search returns its best incumbent (or the
// BFS-prefix cut), a valid bisection but not a certified optimum.
func searchBisection(g *graph.Graph, bound, workers int, mon *solve.Monitor) (*cut.Cut, int, bool) {
	n := g.N()
	if n == 0 {
		return cut.FromSet(g, nil), 0, true
	}
	order := bfsOrder(g)
	seedCut := initialBisection(g, order)
	start := seedCut.Capacity()
	seeded := bound > 0 && bound < start
	if seeded {
		start = bound
	}
	sb := sharedBound{mon: mon}
	sb.best.Store(int64(start + 1))
	half := (n + 1) / 2
	prefixes := bisectionPrefixes(n, fanoutDepth(n, workers), half)
	var incomplete atomic.Bool
	runPool(len(prefixes), workers, func() func(int) {
		st := newBBState(g, order)
		st.mon = mon
		return func(job int) {
			if mon.Stopped() {
				incomplete.Store(true)
				return
			}
			prefix := prefixes[job]
			for i, s := range prefix {
				st.place(int(order[i]), s)
			}
			st.dfs(len(prefix), half, &sb)
			for i := len(prefix) - 1; i >= 0; i-- {
				st.unplace(int(order[i]), prefix[i])
			}
			st.flushTicks()
			if st.stopped {
				incomplete.Store(true)
			}
		}
	})

	switch {
	case sb.side != nil:
		return cut.New(g, sb.side), int(sb.best.Load()), !incomplete.Load()
	case incomplete.Load():
		// Cancelled before anything beat the seed: the BFS-prefix cut is
		// feasible but not certified.
		return seedCut, seedCut.Capacity(), false
	case seeded:
		// bound undercut BW(g), so nothing was found: rerun unseeded.
		return searchBisection(g, 0, workers, mon)
	default:
		// Nothing beat the BFS-prefix cut: it is optimal.
		return seedCut, seedCut.Capacity(), true
	}
}

// bisectionPrefixes enumerates the side assignments of the first depth
// nodes of the order under the search's own constraints (at most half
// nodes per side, the first node in S); depth 0 yields the one empty
// prefix.
func bisectionPrefixes(n, depth, half int) [][]int8 {
	var out [][]int8
	prefix := make([]int8, depth)
	var gen func(idx, sizeS, sizeT int)
	gen = func(idx, sizeS, sizeT int) {
		if idx == depth {
			out = append(out, append([]int8(nil), prefix...))
			return
		}
		if sizeS < half {
			prefix[idx] = sideS
			gen(idx+1, sizeS+1, sizeT)
		}
		if idx > 0 && sizeT < half {
			prefix[idx] = sideSbar
			gen(idx+1, sizeS, sizeT+1)
		}
	}
	gen(0, 0, 0)
	return out
}

// initialBisection returns the balanced BFS-prefix cut used to seed the
// search.
func initialBisection(g *graph.Graph, order []int32) *cut.Cut {
	side := make([]bool, g.N())
	for i := 0; i < g.N()/2; i++ {
		side[order[i]] = true
	}
	return cut.New(g, side)
}

// MinSubsetBisection returns a cut of minimum capacity among those that
// bisect the node set u (the U-bisection width BW(g, U) of §2.1), together
// with that capacity. Nodes outside u are unconstrained.
func MinSubsetBisection(g *graph.Graph, u []int) (*cut.Cut, int) {
	c, w, _ := minSubsetBisectionSearch(g, u, nil)
	return c, w
}

// minSubsetBisectionSearch is MinSubsetBisection with cooperative
// cancellation; the flag reports completion (see searchBisection). It
// stays a serial DFS of its own: the U-balance constraint has no
// prefix fan-out and no caller needs one.
func minSubsetBisectionSearch(g *graph.Graph, u []int, mon *solve.Monitor) (*cut.Cut, int, bool) {
	n := g.N()
	inU := make([]bool, n)
	for _, v := range u {
		inU[v] = true
	}
	st := newBBState(g, bfsOrder(g))
	st.mon = mon

	// Seed: alternate u between sides in BFS order, everything else in S̄.
	seedSide := make([]bool, n)
	uSeen := 0
	for _, v := range st.order {
		if inU[v] {
			seedSide[v] = uSeen%2 == 0
			uSeen++
		}
	}
	seed := cut.New(g, seedSide)
	sb := sharedBound{mon: mon}
	sb.best.Store(int64(seed.Capacity() + 1))

	uHalf := (len(u) + 1) / 2
	uInS, uInSbar := 0, 0
	firstU := -1
	for _, v := range st.order {
		if inU[int(v)] {
			firstU = int(v)
			break
		}
	}

	var dfs func(idx int)
	dfs = func(idx int) {
		if st.tickNode() {
			return
		}
		if st.curCut+st.minSum >= int(sb.best.Load()) {
			st.prunedTick++
			return
		}
		if idx == n {
			sb.record(st.curCut, st.assign)
			return
		}
		v := int(st.order[idx])
		first, second := sideS, sideSbar
		if st.cntSbar[v] < st.cntS[v] {
			first, second = sideSbar, sideS
		}
		for _, s := range []int8{first, second} {
			if inU[v] {
				if s == sideS && uInS >= uHalf {
					continue
				}
				if s == sideSbar && uInSbar >= uHalf {
					continue
				}
				// Symmetry: the first u node in order is fixed in S.
				if v == firstU && s != sideS {
					continue
				}
			}
			if inU[v] {
				if s == sideS {
					uInS++
				} else {
					uInSbar++
				}
			}
			st.place(v, s)
			dfs(idx + 1)
			st.unplace(v, s)
			if inU[v] {
				if s == sideS {
					uInS--
				} else {
					uInSbar--
				}
			}
		}
	}
	if !mon.Stopped() {
		dfs(0)
	}
	st.flushTicks() // latches st.stopped if the monitor stopped at any point

	if sb.side == nil {
		// Either the alternating seed is optimal (complete search) or the
		// search was cancelled before beating it; the seed is feasible
		// either way.
		return seed, seed.Capacity(), !st.stopped
	}
	return cut.New(g, sb.side), int(sb.best.Load()), !st.stopped
}
