package exact

import (
	"context"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// serial runs a search as one depth-first job; fanned runs it split into
// prefix jobs on three workers (on networks of at least 16 nodes).
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
// engine — Solve* on one and on three workers, the survey, and the union
// of all shards — against plain enumeration, unrooted and rooted, for
// every k on B4, Q4, W4 and random graphs of up to 18 nodes (so both the
// single-job and the fanned-out schedules run). Q4 and W4 are declared
// vertex-transitive, so their edge table sweeps run rooted; W4 has
// parallel edges.
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
		root := rng.Intn(n)
		var ks []int
		for k := 1; k < n; k++ {
			ks = append(ks, k)
		}
		bf := bruteForceExpansion(g, root)
		for _, rooted := range []bool{false, true} {
			opts, surveyRoot, wantEE, wantNE := SolveOptions{}, -1, bf.ee, bf.ne
			if rooted {
				opts, surveyRoot, wantEE, wantNE = SolveOptions{Containing: true, Root: root}, root, bf.eeRoot, bf.neRoot
			}
			check := func(how string, k int, set []int, val int, edge bool) {
				t.Helper()
				want := wantNE[k]
				if edge {
					want = wantEE[k]
				}
				if val != want {
					t.Fatalf("n=%d rooted=%v k=%d edge=%v %s: %d, brute force %d", n, rooted, k, edge, how, val, want)
				}
				checkFeasibleSet(t, g, set, k, val, edge)
				if rooted && !contains(set, root) {
					t.Fatalf("n=%d k=%d %s: witness misses root %d", n, k, how, root)
				}
			}
			for _, workers := range []int{1, 3} {
				opts.Workers = workers
				for _, k := range ks {
					res := SolveEdgeExpansion(ctx, g, k, opts)
					check("SolveEdgeExpansion", k, res.Set, res.Value, true)
					res = SolveNodeExpansion(ctx, g, k, opts)
					check("SolveNodeExpansion", k, res.Set, res.Value, false)
				}
				for _, r := range ExpansionSurvey(g, ks, surveyRoot, workers) {
					check("survey", r.K, r.EESet, r.EE, true)
					check("survey", r.K, r.NESet, r.NE, false)
				}
			}
			for _, k := range ks {
				for _, edge := range []bool{true, false} {
					val, set := runAllShards(t, g, ExpansionShardSpec{K: k, Edge: edge, Root: surveyRoot}, 5)
					check("shard union", k, set, val, edge)
				}
			}
		}
	}
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
// boundary over all k-sets and over the k-sets containing one root.
type bruteExpansion struct {
	ee, ne, eeRoot, neRoot []int
}

// bruteForceExpansion enumerates every node subset of g as a bitmask.
func bruteForceExpansion(g *graph.Graph, root int) bruteExpansion {
	n := g.N()
	bf := bruteExpansion{make([]int, n+1), make([]int, n+1), make([]int, n+1), make([]int, n+1)}
	for _, s := range [][]int{bf.ee, bf.ne, bf.eeRoot, bf.neRoot} {
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
		if mask>>root&1 == 1 {
			bf.eeRoot[k], bf.neRoot[k] = min(bf.eeRoot[k], ee), min(bf.neRoot[k], ne)
		}
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
