package heuristic

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cut"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/topology"
)

func cycleGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

func TestBisectFindsOptimaOnSmallGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"cycle12", cycleGraph(12), 2},
		{"Q4", topology.NewHypercube(4).Graph, 8},
		{"W8", topology.NewWrappedButterfly(8).Graph, 8},
		{"CCC8", topology.NewCCC(8).Graph, 4},
	}
	for _, c := range cases {
		bis := Bisect(c.g, BisectOptions{Starts: 16, Seed: 1})
		if !bis.IsBisection() {
			t.Errorf("%s: not a bisection", c.name)
		}
		if got := bis.Capacity(); got != c.want {
			t.Errorf("%s: heuristic found %d, optimum is %d", c.name, got, c.want)
		}
	}
}

func TestBisectNeverBelowExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 8 + 2*rng.Intn(4)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		_, opt := exact.MinBisection(g)
		h := Bisect(g, BisectOptions{Starts: 4, Seed: int64(trial)})
		if h.Capacity() < opt {
			t.Fatalf("heuristic %d beat exact optimum %d", h.Capacity(), opt)
		}
	}
}

func TestBisectEmptyAndOdd(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	if c := Bisect(empty, BisectOptions{Seed: 1}); c.Capacity() != 0 {
		t.Errorf("empty graph capacity %d", c.Capacity())
	}
	odd := cycleGraph(9)
	c := Bisect(odd, BisectOptions{Starts: 8, Seed: 2})
	if !c.IsBisection() {
		t.Errorf("odd-order result not a bisection: %d/%d", c.SizeS(), c.SizeSbar())
	}
	if c.Capacity() != 2 {
		t.Errorf("C9 heuristic = %d, want 2", c.Capacity())
	}
}

func TestRefineCutImproves(t *testing.T) {
	// A deliberately bad balanced cut of a cycle (alternating sides) must
	// refine to something no worse, while staying balanced.
	g := cycleGraph(16)
	side := make([]bool, 16)
	for i := 0; i < 16; i += 2 {
		side[i] = true
	}
	c := cut.New(g, side)
	before := c.Capacity()
	after := RefineCut(c, 20)
	if after > before {
		t.Errorf("refinement worsened the cut: %d → %d", before, after)
	}
	if !c.IsBisection() {
		t.Errorf("refinement broke balance")
	}
	if c.Capacity() != after {
		t.Errorf("returned capacity mismatch")
	}
}

func TestBisectDeterministicWithSeed(t *testing.T) {
	g := topology.NewWrappedButterfly(8).Graph
	a := Bisect(g, BisectOptions{Starts: 4, Seed: 7}).Capacity()
	b := Bisect(g, BisectOptions{Starts: 4, Seed: 7}).Capacity()
	if a != b {
		t.Errorf("same seed gave %d and %d", a, b)
	}
}

func TestGreedyEdgeExpansion(t *testing.T) {
	g := cycleGraph(12)
	for k := 1; k <= 6; k++ {
		set, v := GreedyEdgeExpansion(g, k, ExpansionOptions{Starts: 4, Seed: 1})
		if len(set) != k {
			t.Fatalf("set size %d, want %d", len(set), k)
		}
		if v != 2 {
			t.Errorf("greedy EE(C12,%d) = %d, want 2 (arc)", k, v)
		}
		if cut.EdgeBoundary(g, set) != v {
			t.Errorf("value does not match set")
		}
	}
}

func TestGreedyNodeExpansion(t *testing.T) {
	g := cycleGraph(12)
	for k := 2; k <= 6; k++ {
		set, v := GreedyNodeExpansion(g, k, ExpansionOptions{Starts: 4, Seed: 1})
		if v != 2 {
			t.Errorf("greedy NE(C12,%d) = %d, want 2", k, v)
		}
		if got := len(cut.NodeBoundary(g, set)); got != v {
			t.Errorf("value does not match set")
		}
	}
}

func TestGreedyExpansionNeverBelowExact(t *testing.T) {
	b := topology.NewButterfly(4)
	for k := 1; k <= 5; k++ {
		opt := exact.SolveEdgeExpansion(context.Background(), b.Graph, k, exact.SolveOptions{Workers: 1}).Value
		_, greedy := GreedyEdgeExpansion(b.Graph, k, ExpansionOptions{Starts: 8, Seed: 9})
		if greedy < opt {
			t.Fatalf("greedy EE %d beat exact %d at k=%d", greedy, opt, k)
		}
		optN := exact.SolveNodeExpansion(context.Background(), b.Graph, k, exact.SolveOptions{Workers: 1}).Value
		_, greedyN := GreedyNodeExpansion(b.Graph, k, ExpansionOptions{Starts: 8, Seed: 9})
		if greedyN < optN {
			t.Fatalf("greedy NE %d beat exact %d at k=%d", greedyN, optN, k)
		}
	}
}

func TestGreedyExpansionDisconnectedFallback(t *testing.T) {
	// k larger than the component: the growth must jump components and
	// still return a set of the right size.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	g := b.Build()
	set, _ := GreedyEdgeExpansion(g, 5, ExpansionOptions{Starts: 2, Seed: 3})
	if len(set) != 5 {
		t.Errorf("set size %d, want 5", len(set))
	}
}

func TestGreedyExpansionZero(t *testing.T) {
	g := cycleGraph(4)
	set, v := GreedyEdgeExpansion(g, 0, ExpansionOptions{Seed: 1})
	if len(set) != 0 || v != 0 {
		t.Errorf("k=0 gave set %v value %d", set, v)
	}
}
