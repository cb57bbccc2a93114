package exact

import (
	"context"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// TestEdgeStateCountersAndBound drives random place/unplace walks through
// one expState, holding the exact EE(g, m) table, and checks after every
// step that the edge-search counters and both histograms equal a recount
// from assign, and that edgeLB(k) is admissible — never above the
// smallest boundary any completion of the partial assignment to k nodes
// reaches — exact at a leaf, never weaker than the flat (k−chosen)·maxDeg
// allowance, and equal to the larger of the gain and Russian-doll bounds
// recomputed from the recount. The table term must raise the bound above
// the gain bound somewhere. The random graphs carry parallel edges, which
// every counter must count with multiplicity.
func TestEdgeStateCountersAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	type named struct {
		name string
		g    *graph.Graph
	}
	graphs := []named{
		{"B4", topology.NewButterfly(4).Graph},
		{"Q4", topology.NewHypercube(4).Graph},
	}
	for _, n := range []int{5, 7, 9, 10, 12, 12} {
		graphs = append(graphs, named{"random", randomGraph(rng, n, 3*n)})
	}
	sawParallel, raised := false, 0
	for _, c := range graphs {
		sawParallel = sawParallel || hasParallelEdge(c.g)
		raised += walkEdgeState(t, c.name, c.g, rng, 400)
	}
	if !sawParallel {
		t.Fatal("no test graph has a parallel edge")
	}
	if raised == 0 {
		t.Fatal("the table term never raised edgeLB above the gain bound")
	}
	t.Logf("the table term raised edgeLB %d times", raised)
}

func hasParallelEdge(g *graph.Graph) bool {
	for _, e := range g.Edges() {
		if g.EdgeMultiplicity(int(e.U), int(e.V)) > 1 {
			return true
		}
	}
	return false
}

// walkEdgeState places a random undecided node on a random side or undoes
// the latest placement, steps times, then unwinds; checkEdgeState runs
// after every step. It returns how often the table term raised the bound.
func walkEdgeState(t *testing.T, name string, g *graph.Graph, rng *rand.Rand, steps int) int {
	t.Helper()
	n := g.N()
	bnd := subsetBoundaries(g)
	st := newExpState(g, bfsOrder(g))
	st.table = edgeTable(g, bnd)
	var placed []int
	raised := 0
	for step := 0; step < steps; step++ {
		if len(placed) == n || (len(placed) > 0 && rng.Intn(2) == 0) {
			st.unplaceEdge(placed[len(placed)-1])
			placed = placed[:len(placed)-1]
		} else {
			v := rng.Intn(n)
			for st.assign[v] != unassigned {
				v = (v + 1) % n
			}
			side := int8(sideS)
			if rng.Intn(2) == 0 {
				side = sideSbar
			}
			st.placeEdge(v, side)
			placed = append(placed, v)
		}
		raised += checkEdgeState(t, name, g, st, bnd)
	}
	for len(placed) > 0 {
		st.unplaceEdge(placed[len(placed)-1])
		placed = placed[:len(placed)-1]
		raised += checkEdgeState(t, name, g, st, bnd)
	}
	return raised
}

// subsetBoundaries returns the edge boundary of every node subset of g
// (at most 16 nodes), indexed by bitmask.
func subsetBoundaries(g *graph.Graph) []int {
	bnd := make([]int, 1<<g.N())
	for mask := 1; mask < len(bnd); mask++ {
		v := bits.TrailingZeros(uint(mask))
		rest := mask &^ (1 << v)
		bnd[mask] = bnd[rest] + g.Degree(v)
		for _, u := range g.Neighbors(v) {
			if rest>>u&1 == 1 {
				bnd[mask] -= 2
			}
		}
	}
	return bnd
}

// edgeTable returns EE(g, m) for every m = 0..n, the minimum of bnd over
// the subsets of each size: the exact table a sweep certifies.
func edgeTable(g *graph.Graph, bnd []int) []int {
	table := make([]int, g.N()+1)
	for m := 1; m < len(table); m++ {
		table[m] = 1 << 30
	}
	for mask, b := range bnd {
		m := bits.OnesCount(uint(mask))
		table[m] = min(table[m], b)
	}
	return table
}

// checkEdgeState checks st against a recount from its assignment and
// returns how many of the bounds it checked the table term raised.
func checkEdgeState(t *testing.T, name string, g *graph.Graph, st *expState, bnd []int) int {
	t.Helper()
	var inS, und int
	chosen, permCut, inUnd := 0, 0, 0
	hist := make([]int32, len(st.gainHist))
	inHist := make([]int32, len(st.inHist))
	var gains, ins []int // per undecided node: in − out and in
	for v := 0; v < g.N(); v++ {
		in, out := 0, 0
		for _, u := range g.Neighbors(v) {
			switch st.assign[u] {
			case sideS:
				in++
			case sideSbar:
				out++
			}
		}
		if int(st.inNbrs[v]) != in || int(st.outNbrs[v]) != out {
			t.Fatalf("%s: node %d has inNbrs/outNbrs %d/%d, recount %d/%d",
				name, v, st.inNbrs[v], st.outNbrs[v], in, out)
		}
		switch st.assign[v] {
		case sideS:
			inS |= 1 << v
			chosen++
			for _, u := range g.Neighbors(v) {
				switch st.assign[u] {
				case sideSbar:
					permCut++
				case unassigned:
					inUnd++
				}
			}
		case unassigned:
			und |= 1 << v
			hist[st.maxDeg+in-out]++
			inHist[in]++
			gains, ins = append(gains, in-out), append(ins, in)
		}
	}
	if st.chosen != chosen || st.permCut != permCut || st.inUnd != inUnd {
		t.Fatalf("%s: chosen/permCut/inUnd %d/%d/%d, recount %d/%d/%d",
			name, st.chosen, st.permCut, st.inUnd, chosen, permCut, inUnd)
	}
	if !slices.Equal(st.gainHist, hist) {
		t.Fatalf("%s: gainHist %v, recount %v", name, st.gainHist, hist)
	}
	if !slices.Equal(st.inHist, inHist) {
		t.Fatalf("%s: inHist %v, recount %v", name, st.inHist, inHist)
	}
	slices.Sort(gains)
	slices.Sort(ins)
	slices.Reverse(gains)
	slices.Reverse(ins)

	// best[m]: the smallest final boundary over all completions adding m
	// undecided nodes to S.
	best := make([]int, bits.OnesCount(uint(und))+1)
	for m := range best {
		best[m] = 1 << 30
	}
	for f := und; ; f = (f - 1) & und {
		m := bits.OnesCount(uint(f))
		best[m] = min(best[m], bnd[inS|f])
		if f == 0 {
			break
		}
	}
	if lb := st.edgeLB(chosen); lb != bnd[inS] {
		t.Fatalf("%s: edgeLB at a leaf is %d, boundary %d", name, lb, bnd[inS])
	}
	raised := 0
	for m, b := range best {
		lb := st.edgeLB(chosen + m)
		if lb > b {
			t.Fatalf("%s: edgeLB(chosen+%d) = %d exceeds the best completion %d", name, m, lb, b)
		}
		if flat := max(permCut, permCut+inUnd-m*st.maxDeg); lb < flat {
			t.Fatalf("%s: edgeLB(chosen+%d) = %d is weaker than the flat allowance %d", name, m, lb, flat)
		}
		gain, doll := permCut+inUnd, permCut+inUnd+st.table[m]
		for i := 0; i < m; i++ {
			gain -= gains[i]
			doll -= 2 * ins[i]
		}
		if want := max(gain, doll); lb != want {
			t.Fatalf("%s: edgeLB(chosen+%d) = %d, recounted gain/table bounds %d/%d", name, m, lb, gain, doll)
		}
		if doll > gain {
			raised++
		}
	}
	return raised
}

// TestEdgeBoundExploredGuard pins how much search the bounds leave when
// certifying the §4.3 headline values from their witnesses on one worker,
// the table steps of the Russian-doll sweep included. Every row runs one
// rooted job per declared node class (one on Wn). With the gain bound
// alone the EE rows take about 2.0M, 1.12B and 0.67M nodes (EE(B16,12)
// searched unrooted); a bound that lets every future node reclaim maxDeg
// boundary edges needs about 96.4M for EE(W16,12) and 12.5M for
// EE(B16,12). Searched unrooted, with the current bounds, EE(B16,12)
// explores about 399K nodes and NE(B32,8) about 1.08M.
func TestEdgeBoundExploredGuard(t *testing.T) {
	w := SolveOptions{Workers: 1, Bound: 16}
	for _, c := range []struct {
		name        string
		g           *graph.Graph
		k, want     int
		edge        bool
		opts        SolveOptions
		maxExplored int64
	}{
		{"EE(W16,12)", topology.NewWrappedButterfly(16).Graph, 12, 16, true, w, 500_000},
		{"EE(W64,12)", topology.NewWrappedButterfly(64).Graph, 12, 16, true, w, 1_000_000},
		{"EE(B16,12)", topology.NewButterfly(16).Graph, 12, 8, true,
			SolveOptions{Workers: 1, Bound: 8}, 20_000},
		{"NE(B32,8)", topology.NewButterfly(32).Graph, 8, 4, false,
			SolveOptions{Workers: 1, Bound: 4}, 100_000},
	} {
		solve := SolveNodeExpansion
		if c.edge {
			solve = SolveEdgeExpansion
		}
		res := solve(context.Background(), c.g, c.k, c.opts)
		if !res.Exact || res.Value != c.want {
			t.Fatalf("%s = %d (exact %v), want %d", c.name, res.Value, res.Exact, c.want)
		}
		if res.Explored >= c.maxExplored {
			t.Errorf("%s explored %d nodes, want fewer than %d", c.name, res.Explored, c.maxExplored)
		}
		t.Logf("%s: %d nodes explored", c.name, res.Explored)
	}
}
