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
// Bisection and expansion each have one engine: a job runner that drains
// prefix jobs (subproblems that fix the sides of the first nodes of a
// decision order: BFS order, or maximum-adjacency order for an edge
// expansion search) over a worker pool, every worker reusing one search
// state, pruning against one shared incumbent and counting its nodes on
// one counter. A bisection starts split at a BFS prefix, an expansion
// search as one rooted job per node class the graph's constructor
// declared (see graph.DeclareOrbits), and whenever a worker waits with
// nothing queued, a busy one donates its shallowest untried branch as a
// new job. A serial solve is one worker running those first jobs in turn,
// which never donates. The bisection engine balances a node set U: every
// node for BW(g), the given subset for the U-bisection width, so both run
// on the same job runner. The expansion engine also takes achievable
// upper-bound seeds (witness or greedy sets) and batches whole k-sweeps
// (ExpansionSurveyWithOptions) over one pool. An edge search of size k
// first certifies EE(g, m) for every m < k and prunes with that table
// (Russian-doll search).
package exact

import (
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
// and those edge sets are disjoint across unassigned nodes. The bound holds
// for any balance constraint, so one state serves every node set U.
type bbState struct {
	g *graph.Graph
	// inU[v] is 1 for a node of U, the node set the search bisects, and 0
	// elsewhere: only U's nodes count toward sizeS and sizeT, neither of
	// which may exceed half, and the node at order index pin (U's first)
	// is fixed in S, as the two sides are symmetric.
	inU     []int8
	half    int
	pin     int
	cntS    []int32 // per node: assigned neighbors in S
	cntSbar []int32 // per node: assigned neighbors in S̄
	curCut  int
	minSum  int // Σ over unassigned of min(cntS, cntSbar)
	sizeS   int
	sizeT   int

	nodeCounter
}

func newBBState(g *graph.Graph, order []int32, inU []int8, half, pin int) *bbState {
	return &bbState{
		g:       g,
		inU:     inU,
		half:    half,
		pin:     pin,
		cntS:    make([]int32, g.N()),
		cntSbar: make([]int32, g.N()),

		nodeCounter: newNodeCounter(order),
	}
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
		st.sizeS += int(st.inU[v])
		st.curCut += int(st.cntSbar[v])
	} else {
		st.sizeT += int(st.inU[v])
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
		st.sizeS -= int(st.inU[v])
		st.curCut -= int(st.cntSbar[v])
	} else {
		st.sizeT -= int(st.inU[v])
		st.curCut -= int(st.cntS[v])
	}
	st.minSum += int(minInt32(st.cntS[v], st.cntSbar[v]))
}

// dfs decides order[idx:] given the placements before idx, recording every
// U-bisection that beats sb: neither side may hold more than half nodes of
// U, and U's first node stays in S. A feasible second side is owed while
// the first runs, and skipped if a flush donated it meanwhile.
func (st *bbState) dfs(idx int, sb *incumbent) {
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
	u := int(st.inU[v])
	// Try the side with fewer cut edges first for faster incumbents.
	first, second := sideS, sideSbar
	if st.cntSbar[v] < st.cntS[v] {
		first, second = sideSbar, sideS
	}
	takeSecond := st.fits(idx, u, second)
	if st.fits(idx, u, first) {
		owed := &st.owed[idx]
		*owed = takeSecond
		st.place(v, first)
		st.dfs(idx+1, sb)
		st.unplace(v, first)
		takeSecond, *owed = *owed, false
	}
	if takeSecond {
		st.place(v, second)
		st.dfs(idx+1, sb)
		st.unplace(v, second)
	}
}

// fits reports whether order[idx], u of U's nodes (0 or 1), may join side
// s: that side stays within half, and U's first node stays in S.
func (st *bbState) fits(idx, u int, s int8) bool {
	if s == sideS {
		return st.sizeS+u <= st.half
	}
	return st.sizeT+u <= st.half && idx != st.pin
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
	c, w, _ := searchBisection(g, nil, bound, 1, nil)
	return c, w
}

// MinSubsetBisection returns a cut of minimum capacity among those that
// bisect the node set u (the U-bisection width BW(g, U) of §2.1), together
// with that capacity, searched on one worker. Nodes outside u are
// unconstrained.
func MinSubsetBisection(g *graph.Graph, u []int) (*cut.Cut, int) {
	c, w, _ := searchBisection(g, subsetMask(g.N(), u), 0, 1, nil)
	return c, w
}

// subsetMask is searchBisection's membership mask of the node set u.
func subsetMask(n int, u []int) []int8 {
	inU := make([]int8, n)
	for _, v := range u {
		inU[v] = 1
	}
	return inU
}

// searchBisection is the bisection engine behind MinBisection*,
// MinSubsetBisection and SolveBisection: the least cut that bisects the
// node set U marked in inU (nil: every node, which is BW(g)). The prefix
// jobs of bisectionPrefixes, and the branches they donate, are drained by
// workers goroutines (≤ 0: GOMAXPROCS), each reusing one bbState, all
// pruning against one incumbent seeded with the BFS-prefix cut or with
// bound > 0, whichever is smaller.
// The flag reports whether the search ran to completion; a stopped search
// returns its best incumbent (or the BFS-prefix cut), a valid U-bisection
// but not a certified optimum.
func searchBisection(g *graph.Graph, inU []int8, bound, workers int, mon *solve.Monitor) (*cut.Cut, int, bool) {
	n := g.N()
	if n == 0 {
		return cut.FromSet(g, nil), 0, true
	}
	if inU == nil {
		inU = make([]int8, n)
		for v := range inU {
			inU[v] = 1
		}
	}
	order := bfsOrder(g)
	sizeU, pin := 0, n
	for i := n - 1; i >= 0; i-- {
		if inU[order[i]] != 0 {
			sizeU, pin = sizeU+1, i
		}
	}
	seedCut := initialBisection(g, order, inU, sizeU/2)
	start := seedCut.Capacity()
	seeded := bound > 0 && bound < start
	if seeded {
		start = bound
	}
	sb := incumbent{mon: mon}
	sb.best.Store(int64(start + 1))
	half := (sizeU + 1) / 2
	jobs := bisectionPrefixes(order, inU, fanoutDepth(n, workers), half, pin)
	incomplete := runBisectionJobs(g, order, inU, half, pin, jobs, &sb, workers, mon)

	switch {
	case sb.side != nil:
		return cut.New(g, sb.side), int(sb.best.Load()), !incomplete
	case incomplete:
		// Cancelled before anything beat the seed: the BFS-prefix cut is
		// feasible but not certified.
		return seedCut, seedCut.Capacity(), false
	case seeded:
		// bound undercut the optimum, so nothing was found: rerun unseeded.
		return searchBisection(g, inU, 0, workers, mon)
	default:
		// Nothing beat the BFS-prefix cut: it is optimal.
		return seedCut, seedCut.Capacity(), true
	}
}

// runBisectionJobs drains the prefix jobs of one U-bisection search
// (inU, half and pin as in bbState) through a pool of workers (≤ 0:
// GOMAXPROCS), each reusing one bbState, every job pruning against and
// recording into sb. It reports whether a job was cut short by
// cancellation; the pool always drains, so it returns promptly.
func runBisectionJobs(g *graph.Graph, order []int32, inU []int8, half, pin int, jobs []job, sb *incumbent, workers int, mon *solve.Monitor) bool {
	var incomplete atomic.Bool
	solve.Run(jobs, workers, func(_ int, q *solve.Queue[job]) func(job) {
		st := newBBState(g, order, inU, half, pin)
		st.mon, st.sb, st.q = mon, sb, q
		return func(j job) {
			st.job = j
			if mon.Stopped() {
				incomplete.Store(true)
				return
			}
			for i, s := range j.prefix {
				st.place(int(order[i]), s)
			}
			st.dfs(len(j.prefix), sb)
			for i := len(j.prefix) - 1; i >= 0; i-- {
				st.unplace(int(order[i]), j.prefix[i])
			}
			st.flushTicks()
			if st.stopped {
				incomplete.Store(true)
			}
		}
	})
	return incomplete.Load()
}

// bisectionPrefixes enumerates the side assignments of the first depth
// nodes of the order under the search's own constraints (at most half
// nodes of U per side, the node at index pin in S) as jobs; depth 0 yields
// the one empty prefix.
func bisectionPrefixes(order []int32, inU []int8, depth, half, pin int) []job {
	var out []job
	prefix := make([]int8, depth)
	var gen func(idx, sizeS, sizeT int)
	gen = func(idx, sizeS, sizeT int) {
		if idx == depth {
			out = append(out, job{prefix: append([]int8(nil), prefix...)})
			return
		}
		u := int(inU[order[idx]])
		if sizeS+u <= half {
			prefix[idx] = sideS
			gen(idx+1, sizeS+u, sizeT)
		}
		if idx != pin && sizeT+u <= half {
			prefix[idx] = sideSbar
			gen(idx+1, sizeS, sizeT+u)
		}
	}
	gen(0, 0, 0)
	return out
}

// initialBisection returns the BFS-prefix cut that seeds the search: S is
// the shortest prefix of the order that holds inS nodes of U.
func initialBisection(g *graph.Graph, order []int32, inU []int8, inS int) *cut.Cut {
	side := make([]bool, g.N())
	for i := 0; inS > 0; i++ {
		side[order[i]] = true
		inS -= int(inU[order[i]])
	}
	return cut.New(g, side)
}
