package exact

import (
	"context"
	"testing"

	"repro/internal/topology"
)

// rootedAt is opts with root forced into every candidate set.
func rootedAt(root int, opts SolveOptions) SolveOptions {
	opts.Containing, opts.Root = true, root
	return opts
}

func TestContainingMatchesGlobalOnVertexTransitive(t *testing.T) {
	// Wn, CCCn and the hypercube are vertex-transitive: forcing a root
	// loses nothing.
	for name, g := range map[string]*topology.Butterfly{
		"W8": topology.NewWrappedButterfly(8),
	} {
		for k := 1; k <= 6; k++ {
			global, rooted := minEE(g.Graph, k, serial), minEE(g.Graph, k, rootedAt(0, serial))
			if rooted != global {
				t.Errorf("%s EE k=%d: rooted %d, global %d", name, k, rooted, global)
			}
			globalN, rootedN := minNE(g.Graph, k, serial), minNE(g.Graph, k, rootedAt(0, serial))
			if rootedN != globalN {
				t.Errorf("%s NE k=%d: rooted %d, global %d", name, k, rootedN, globalN)
			}
		}
	}

	q := topology.NewHypercube(4)
	for k := 2; k <= 5; k++ {
		global, rooted := minEE(q.Graph, k, serial), minEE(q.Graph, k, rootedAt(3, serial))
		if rooted != global {
			t.Errorf("Q4 EE k=%d: rooted %d, global %d", k, rooted, global)
		}
	}
}

func TestContainingIsUpperBoundOnBn(t *testing.T) {
	// Bn is NOT vertex-transitive (inputs have degree 2, the interior 4):
	// rooting at an interior node can only give ≥ the global optimum.
	b := topology.NewButterfly(4)
	interior := b.Node(0, 1)
	for k := 1; k <= 4; k++ {
		global := minEE(b.Graph, k, serial)
		res := SolveEdgeExpansion(context.Background(), b.Graph, k, rootedAt(interior, serial))
		if res.Value < global {
			t.Errorf("k=%d: rooted %d below global %d — impossible", k, res.Value, global)
		}
		if !contains(res.Set, interior) {
			t.Errorf("k=%d: root not in the returned set", k)
		}
	}
}

func TestContainingRootInSet(t *testing.T) {
	w := topology.NewWrappedButterfly(8)
	for _, root := range []int{0, 5, 17} {
		set := SolveEdgeExpansion(context.Background(), w.Graph, 4, rootedAt(root, serial)).Set
		if !contains(set, root) {
			t.Errorf("root %d missing from set %v", root, set)
		}
		setN := SolveNodeExpansion(context.Background(), w.Graph, 4, rootedAt(root, fanned)).Set
		if !contains(setN, root) {
			t.Errorf("root %d missing from NE set %v", root, setN)
		}
	}
}

func TestContainingValidation(t *testing.T) {
	w := topology.NewWrappedButterfly(8)
	defer func() {
		if recover() == nil {
			t.Errorf("bad root did not panic")
		}
	}()
	minEE(w.Graph, 2, rootedAt(-1, serial))
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
