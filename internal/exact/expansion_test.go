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

// serial runs a search as one depth-first job; fanned shares it among three
// workers, which donate branches to each other (and split a bisection of
// at least 16 nodes at a BFS prefix first).
var (
	serial = SolveOptions{Workers: 1}
	fanned = SolveOptions{Workers: 3}
)

// minEE and minNE are the optimum of a complete solve under opts.
func minEE(g *graph.Graph, k int, opts SolveOptions) int {
	return SolveEdgeExpansion(context.Background(), g, k, opts).Value
}

func minNE(g *graph.Graph, k int, opts SolveOptions) int {
	return SolveNodeExpansion(context.Background(), g, k, opts).Value
}

func TestMinEdgeExpansionCycle(t *testing.T) {
	// On a cycle, every contiguous arc of 1 ≤ k < n nodes has boundary 2,
	// and nothing beats it.
	g := cycleGraph(10)
	for k := 1; k < 10; k++ {
		res := SolveEdgeExpansion(context.Background(), g, k, serial)
		if res.Value != 2 {
			t.Errorf("EE(C10,%d) = %d, want 2", k, res.Value)
		}
		checkFeasibleSet(t, g, res.Set, k, res.Value, true)
	}
}

func TestMinEdgeExpansionComplete(t *testing.T) {
	// EE(K_N, k) = k(N−k) (§1.4).
	g := topology.NewComplete(7)
	for k := 0; k <= 7; k++ {
		if v, want := minEE(g, k, serial), k*(7-k); v != want {
			t.Errorf("EE(K7,%d) = %d, want %d", k, v, want)
		}
	}
}

func TestMinNodeExpansionCycle(t *testing.T) {
	g := cycleGraph(10)
	for k := 1; k <= 8; k++ {
		res := SolveNodeExpansion(context.Background(), g, k, serial)
		if res.Value != 2 {
			t.Errorf("NE(C10,%d) = %d, want 2", k, res.Value)
		}
		checkFeasibleSet(t, g, res.Set, k, res.Value, false)
	}
	// k = 9: only one node remains outside and it is adjacent to the arc.
	if v := minNE(g, 9, serial); v != 1 {
		t.Errorf("NE(C10,9) = %d, want 1", v)
	}
}

func TestMinNodeExpansionStar(t *testing.T) {
	// Star K_{1,5}: any k ≤ 5 leaves have exactly one neighbor (the hub).
	g := topology.NewCompleteBipartite(1, 5)
	for k := 1; k <= 4; k++ {
		if v := minNE(g, k, serial); v != 1 {
			t.Errorf("NE(star,%d) = %d, want 1", k, v)
		}
	}
}

func TestExpansionTrivialSizes(t *testing.T) {
	g := cycleGraph(6)
	if v := minEE(g, 0, serial); v != 0 {
		t.Errorf("EE(·,0) = %d", v)
	}
	if v := minEE(g, 6, fanned); v != 0 {
		t.Errorf("EE(·,N) = %d", v)
	}
	if v := minNE(g, 0, serial); v != 0 {
		t.Errorf("NE(·,0) = %d", v)
	}
}

// TestExpansionAgainstBruteForce checks every route into the expansion
// engine — Solve* and the survey, each on one and on three workers —
// against plain enumeration for every k on B4, Q4, W4 and random graphs of
// up to 18 nodes. B4, Q4 and W4 declare node classes, so their searches
// and edge table sweeps run one rooted job per class (two on B4, one on Q4
// and W4); W4 has parallel edges. B8 (three classes) is checked against
// enumeration up to k = 6 and, for every k, against the same search on an
// undeclared copy, which runs unrooted from node 0.
func TestExpansionAgainstBruteForce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	graphs := []*graph.Graph{topology.NewButterfly(4).Graph, topology.NewHypercube(4).Graph}
	for _, n := range []int{8, 11, 14, 16, 17, 18} {
		graphs = append(graphs, randomGraph(rng, n, 2*n))
	}
	graphs = append(graphs, topology.NewWrappedButterfly(4).Graph)
	for _, g := range graphs {
		n := g.N()
		var ks []int
		for k := 1; k < n; k++ {
			ks = append(ks, k)
		}
		bf := bruteForceExpansion(g)
		check := func(how string, k int, set []int, val int, edge bool) {
			t.Helper()
			want := bf.ne[k]
			if edge {
				want = bf.ee[k]
			}
			if val != want {
				t.Fatalf("n=%d k=%d edge=%v %s: %d, brute force %d", n, k, edge, how, val, want)
			}
			checkFeasibleSet(t, g, set, k, val, edge)
		}
		for _, workers := range []int{1, 3} {
			opts := SolveOptions{Workers: workers}
			for _, k := range ks {
				res := SolveEdgeExpansion(ctx, g, k, opts)
				check("SolveEdgeExpansion", k, res.Set, res.Value, true)
				res = SolveNodeExpansion(ctx, g, k, opts)
				check("SolveNodeExpansion", k, res.Set, res.Value, false)
			}
			for _, r := range ExpansionSurveyWithOptions(g, ks, workers, SurveyOptions{}) {
				check("survey", r.K, r.EESet, r.EE, true)
				check("survey", r.K, r.NESet, r.NE, false)
			}
		}
	}

	b8 := topology.NewButterfly(8).Graph
	plain := undeclaredCopy(b8)
	var ks []int
	for k := 1; k < b8.N(); k++ {
		ks = append(ks, k)
	}
	for _, workers := range []int{1, 3} {
		opts := SolveOptions{Workers: workers}
		orbit := ExpansionSurveyWithOptions(b8, ks, workers, SurveyOptions{})
		flat := ExpansionSurveyWithOptions(plain, ks, workers, SurveyOptions{})
		for i, k := range ks {
			r, want := orbit[i], flat[i]
			if r.EE != want.EE || r.NE != want.NE || !r.EEExact || !r.NEExact {
				t.Fatalf("B8 k=%d workers=%d: survey EE/NE %d/%d (exact %v/%v), undeclared copy %d/%d",
					k, workers, r.EE, r.NE, r.EEExact, r.NEExact, want.EE, want.NE)
			}
			checkFeasibleSet(t, b8, r.EESet, k, r.EE, true)
			checkFeasibleSet(t, b8, r.NESet, k, r.NE, false)
			ee := SolveEdgeExpansion(ctx, b8, k, opts)
			ne := SolveNodeExpansion(ctx, b8, k, opts)
			if ee.Value != want.EE || ne.Value != want.NE {
				t.Fatalf("B8 k=%d workers=%d: Solve* EE/NE %d/%d, undeclared copy %d/%d",
					k, workers, ee.Value, ne.Value, want.EE, want.NE)
			}
			checkFeasibleSet(t, b8, ee.Set, k, ee.Value, true)
			checkFeasibleSet(t, b8, ne.Set, k, ne.Value, false)
			if k <= 6 {
				if bee, bne := bruteMinBoundary(b8, k); r.EE != bee || r.NE != bne {
					t.Fatalf("B8 k=%d: EE/NE %d/%d, brute force %d/%d", k, r.EE, r.NE, bee, bne)
				}
			}
		}
	}
}

// TestEdgeStartsMaxAdjacencyOrder checks the edge searches' decision
// orders against a quadratic maximum-adjacency reference on W8, W16, B8,
// B16 and a random multigraph (no classes, so one start from node 0): each
// order is a permutation of its node-search start's nodes that keeps the
// class prefix and the forced node in place, and every later node has the
// most edges into the nodes before it, parallel edges counted, the node
// earliest in BFS order from the forced node winning a tie.
func TestEdgeStartsMaxAdjacencyOrder(t *testing.T) {
	multi := randomGraph(rand.New(rand.NewSource(5)), 14, 70)
	parallel := false
	for v := range multi.N() {
		nb := multi.Neighbors(v)
		for i := range nb {
			parallel = parallel || slices.Contains(nb[i+1:], nb[i])
		}
	}
	if !parallel {
		t.Fatal("the random multigraph has no parallel edge")
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"W8", topology.NewWrappedButterfly(8).Graph},
		{"W16", topology.NewWrappedButterfly(16).Graph},
		{"B8", topology.NewButterfly(8).Graph},
		{"B16", topology.NewButterfly(16).Graph},
		{"random", multi},
	} {
		n, nodeStarts := c.g.N(), unrootedStarts(c.g)
		starts := edgeStarts(c.g, nodeStarts)
		if len(starts) != len(nodeStarts) {
			t.Fatalf("%s: %d edge starts, %d node starts", c.name, len(starts), len(nodeStarts))
		}
		ties := 0
		for i, s := range starts {
			ns := nodeStarts[i]
			fixed := max(ns.forced, 0) + 1
			if s.forced != ns.forced || !slices.Equal(s.prefix, ns.prefix) || !slices.Equal(s.order[:fixed], ns.order[:fixed]) {
				t.Fatalf("%s start %d: forced %d, prefix %v, fixed part %v; node start %d, %v, %v",
					c.name, i, s.forced, s.prefix, s.order[:fixed], ns.forced, ns.prefix, ns.order[:fixed])
			}
			got, want := slices.Clone(s.order), slices.Clone(ns.order)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s start %d: order %v is not a permutation of %v", c.name, i, s.order, ns.order)
			}
			links, placed := make([]int, n), make([]bool, n)
			place := func(v int32) {
				placed[v] = true
				for _, w := range c.g.Neighbors(int(v)) {
					links[w]++
				}
			}
			for _, v := range s.order[:fixed] {
				place(v)
			}
			bfs := bfsOrderFrom(c.g, int(s.order[fixed-1]))
			for d := fixed; d < n; d++ {
				best, tied := int32(-1), 0
				for _, v := range bfs {
					switch {
					case placed[v]:
					case best < 0 || links[v] > links[best]:
						best, tied = v, 0
					case links[v] == links[best]:
						tied++
					}
				}
				if s.order[d] != best {
					t.Fatalf("%s start %d: order[%d] = %d (%d links), reference %d (%d links, earliest in BFS order)",
						c.name, i, d, s.order[d], links[s.order[d]], best, links[best])
				}
				if tied > 0 {
					ties++
				}
				place(best)
			}
		}
		if ties == 0 {
			t.Errorf("%s: no tie decided by BFS rank", c.name)
		}
	}
}

// undeclaredCopy rebuilds g edge for edge, without its node classes.
func undeclaredCopy(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.AddEdge(int(e.U), int(e.V))
	}
	return b.Build()
}

func randomGraph(rng *rand.Rand, n, pairs int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < pairs; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// bruteExpansion holds, per set size k, the minimum edge and node
// boundary over all k-sets.
type bruteExpansion struct {
	ee, ne []int
}

// bruteForceExpansion enumerates every node subset of g as a bitmask.
func bruteForceExpansion(g *graph.Graph) bruteExpansion {
	n := g.N()
	bf := bruteExpansion{make([]int, n+1), make([]int, n+1)}
	for _, s := range [][]int{bf.ee, bf.ne} {
		for k := range s {
			s[k] = 1 << 30
		}
	}
	nbrs := make([]uint32, n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			nbrs[v] |= 1 << u
		}
	}
	for mask := uint32(0); mask < 1<<n; mask++ {
		ee, reach := 0, uint32(0)
		for v := 0; v < n; v++ {
			if mask>>v&1 == 0 {
				continue
			}
			reach |= nbrs[v]
			for _, u := range g.Neighbors(v) {
				if mask>>u&1 == 0 {
					ee++ // every parallel edge counts
				}
			}
		}
		k, ne := bits.OnesCount32(mask), bits.OnesCount32(reach&^mask)
		bf.ee[k], bf.ne[k] = min(bf.ee[k], ee), min(bf.ne[k], ne)
	}
	return bf
}

func TestExpansionButterflySanity(t *testing.T) {
	// On B4 the single cheapest node to isolate is an input/output (degree
	// 2), so EE(B4,1) = 2; a 2-node set can share one edge: EE(B4,2) = 2·2−...
	// an input plus its level-1 neighbor has boundary 2+4−2 = 4, two inputs
	// have boundary 4, so EE(B4,2) = 4.
	b := topology.NewButterfly(4)
	if v := minEE(b.Graph, 1, serial); v != 2 {
		t.Errorf("EE(B4,1) = %d, want 2", v)
	}
	if v := minEE(b.Graph, 2, serial); v != 4 {
		t.Errorf("EE(B4,2) = %d, want 4", v)
	}
	if v := minNE(b.Graph, 1, serial); v != 2 {
		t.Errorf("NE(B4,1) = %d, want 2", v)
	}
}

func TestExpansionSizeValidation(t *testing.T) {
	g := cycleGraph(4)
	for _, bad := range []int{-1, 5} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d did not panic", bad)
				}
			}()
			minEE(g, bad, serial)
		}()
	}
}
