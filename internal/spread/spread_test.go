package spread

import (
	"context"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/topology"
)

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func TestStepOnPath(t *testing.T) {
	g := pathGraph(5)
	got := Step(g, []int{2})
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("informed = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("informed = %v, want %v", got, want)
		}
	}
}

func TestRunInformsEverything(t *testing.T) {
	w := topology.NewWrappedButterfly(16)
	tr, err := Run(w.Graph, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Sizes[len(tr.Sizes)-1] != w.N() {
		t.Errorf("final size %d, want %d", tr.Sizes[len(tr.Sizes)-1], w.N())
	}
	// One informed node reaches everything within the diameter.
	if tr.Rounds > w.Diameter() {
		t.Errorf("took %d rounds, diameter is %d", tr.Rounds, w.Diameter())
	}
	// Sizes strictly increase until saturation.
	for i := 0; i+1 < len(tr.Sizes); i++ {
		if tr.Sizes[i+1] <= tr.Sizes[i] {
			t.Errorf("round %d did not grow: %v", i, tr.Sizes)
		}
	}
}

func TestGrowthMatchesBoundary(t *testing.T) {
	// Sizes[t+1] − Sizes[t] = |N(S_t)| exactly, by definition of Step.
	b := topology.NewButterfly(8)
	tr, err := Run(b.Graph, b.InputNodes()[:2])
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < len(tr.Boundary); ti++ {
		if tr.Sizes[ti+1]-tr.Sizes[ti] != tr.Boundary[ti] {
			t.Errorf("round %d: grew %d but boundary was %d",
				ti, tr.Sizes[ti+1]-tr.Sizes[ti], tr.Boundary[ti])
		}
	}
}

func TestVerifyGrowthAgainstExactNE(t *testing.T) {
	// §1.3: every round grows by at least NE(G, k). Use the exact node
	// expansion as the oracle on a small Wn.
	w := topology.NewWrappedButterfly(8)
	neCache := make(map[int]int)
	ne := func(k int) int {
		if k >= w.N() {
			return 0
		}
		if v, ok := neCache[k]; ok {
			return v
		}
		v := exact.SolveNodeExpansion(context.Background(), w.Graph, k, exact.SolveOptions{Workers: 1}).Value
		neCache[k] = v
		return v
	}
	for _, seed := range [][]int{{0}, {0, 1}, w.LevelNodes(0)[:3]} {
		tr, err := Run(w.Graph, seed)
		if err != nil {
			t.Fatal(err)
		}
		if bad := VerifyGrowth(tr, ne); bad >= 0 {
			t.Errorf("seed %v: round %d grew less than NE(G,k)", seed, bad)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(pathGraph(3), nil); err == nil {
		t.Errorf("empty seed accepted")
	}
	// Disconnected graph never finishes.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	if _, err := Run(b.Build(), []int{0}); err == nil {
		t.Errorf("disconnected graph should error")
	}
}
