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

// TestBisectionAgainstBruteForce checks the bisection engine on one and
// on three workers, seeded and unseeded, against enumerating every
// balanced split of random graphs of up to 16 nodes (16-node graphs run
// fanned out, smaller ones as one job).
func TestBisectionAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	graphs := []*graph.Graph{topology.NewHypercube(4).Graph, cycleGraph(16)}
	for _, n := range []int{9, 12, 15, 16, 16, 16} {
		graphs = append(graphs, randomGraph(rng, n, 2*n+rng.Intn(n)))
	}
	for i, g := range graphs {
		want := bruteForceBisection(g)
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

// bruteForceBisection enumerates every split of g into ⌊n/2⌋ and ⌈n/2⌉
// nodes as a bitmask and returns the least capacity.
func bruteForceBisection(g *graph.Graph) int {
	n, best := g.N(), 1<<30
	for mask := uint32(0); mask < 1<<n; mask++ {
		if bits.OnesCount32(mask) != n/2 {
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
