package exact

import (
	"context"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// minBW is the width of a complete bisection solve under opts.
func minBW(t *testing.T, g *graph.Graph, opts SolveOptions) int {
	t.Helper()
	res := SolveBisection(context.Background(), g, opts)
	if !res.Exact {
		t.Fatalf("uncancelled bisection not Exact")
	}
	if !res.Cut.IsBisection() || res.Cut.Capacity() != res.Width {
		t.Fatalf("witness is not a bisection of capacity %d", res.Width)
	}
	return res.Width
}

// bruteForceGraphs are the cross-check graphs of the bisection engine:
// Q4, a 16-cycle and random graphs of up to 16 nodes (16-node graphs run
// fanned out on more than one worker, smaller ones as one job).
func bruteForceGraphs() []*graph.Graph {
	rng := rand.New(rand.NewSource(29))
	graphs := []*graph.Graph{topology.NewHypercube(4).Graph, cycleGraph(16)}
	for _, n := range []int{9, 12, 15, 16, 16, 16} {
		graphs = append(graphs, randomGraph(rng, n, 2*n+rng.Intn(n)))
	}
	return graphs
}

// TestBisectionAgainstBruteForce checks the bisection engine on one and
// on three workers, seeded and unseeded, against enumerating every
// balanced split of bruteForceGraphs.
func TestBisectionAgainstBruteForce(t *testing.T) {
	for i, g := range bruteForceGraphs() {
		want := bruteForceBisection(g, 1<<g.N()-1)
		if _, got := MinBisection(g); got != want {
			t.Fatalf("graph %d (n=%d): MinBisection %d, brute force %d", i, g.N(), got, want)
		}
		for _, opts := range []SolveOptions{serial, fanned, {Workers: 3, Bound: want}, {Workers: 3, Bound: want + 3}} {
			if got := minBW(t, g, opts); got != want {
				t.Fatalf("graph %d (n=%d) %+v: BW %d, brute force %d", i, g.N(), opts, got, want)
			}
		}
	}
}

// TestSubsetBisectionAgainstBruteForce checks the U-bisection width on
// one, two and four workers, unseeded and seeded, against enumeration, on
// bruteForceGraphs with U every node, a random U of odd and of even size,
// and |U| ≤ 1 (width 0).
func TestSubsetBisectionAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for i, g := range bruteForceGraphs() {
		n := g.N()
		perm := rng.Perm(n)
		odd := 3 + 2*rng.Intn((n-3)/2)
		even := 2 + 2*rng.Intn((n-2)/2)
		for _, u := range [][]int{perm, perm[:odd], perm[:even], perm[:1], nil} {
			var mask uint32
			for _, v := range u {
				mask |= 1 << v
			}
			want := bruteForceBisection(g, mask)
			if len(u) <= 1 && want != 0 {
				t.Fatalf("graph %d: brute-force width %d for |U| = %d", i, want, len(u))
			}
			if _, got := MinSubsetBisection(g, u); got != want {
				t.Fatalf("graph %d (n=%d) |U|=%d: MinSubsetBisection %d, brute force %d", i, n, len(u), got, want)
			}
			for _, opts := range []SolveOptions{{Workers: 1}, {Workers: 2}, {Workers: 4}, {Workers: 2, Bound: want}, {Workers: 4, Bound: want + 3}} {
				res := SolveSubsetBisection(context.Background(), g, u, opts)
				if !res.Exact || res.Width != want {
					t.Fatalf("graph %d (n=%d) |U|=%d %+v: (%d,%v), brute force %d",
						i, n, len(u), opts, res.Width, res.Exact, want)
				}
				if !res.Cut.BisectsSubset(u) || res.Cut.Capacity() != res.Width {
					t.Fatalf("graph %d |U|=%d %+v: witness does not bisect U at capacity %d",
						i, len(u), opts, res.Width)
				}
			}
		}
	}
}

// bruteForceBisection enumerates every split of g that bisects the node
// set U given as a bitmask, as a bitmask of S holding ⌊|U|/2⌋ nodes of U
// (its complement covers the splits with ⌈|U|/2⌉), and returns the least
// capacity.
func bruteForceBisection(g *graph.Graph, u uint32) int {
	n, best := g.N(), 1<<30
	for mask := uint32(0); mask < 1<<n; mask++ {
		if bits.OnesCount32(mask&u) != bits.OnesCount32(u)/2 {
			continue
		}
		c := 0
		for _, e := range g.Edges() {
			if mask>>e.U&1 != mask>>e.V&1 {
				c++
			}
		}
		best = min(best, c)
	}
	return best
}

func TestMinBisectionParallelRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		n := 16 + 2*rng.Intn(4)
		g := randomGraph(rng, n, 3*n)
		if one, three := minBW(t, g, serial), minBW(t, g, fanned); one != three {
			t.Fatalf("trial %d: 3 workers %d ≠ 1 worker %d", trial, three, one)
		}
	}
}

func TestMinBisectionParallelWorkerCounts(t *testing.T) {
	g := topology.NewWrappedButterfly(8).Graph
	_, want := MinBisection(g)
	for _, workers := range []int{0, 1, 2, 8} {
		if got := minBW(t, g, SolveOptions{Workers: workers}); got != want {
			t.Errorf("workers=%d: %d, want %d", workers, got, want)
		}
	}
}

func TestMinBisectionParallelSeedOptimal(t *testing.T) {
	// Disconnected components: the BFS-prefix seed is already optimal
	// (capacity 0), so the shared bound never improves and the seed path
	// must be returned.
	b := graph.NewBuilder(20)
	for i := 0; i < 10; i += 2 {
		b.AddEdge(i, i+1)
	}
	for i := 10; i < 20; i += 2 {
		b.AddEdge(i, i+1)
	}
	if w := minBW(t, b.Build(), SolveOptions{Workers: 4}); w != 0 {
		t.Errorf("width %d, want 0", w)
	}
}
