package topology

import (
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/graph"
)

// Benes is the (log n)-dimensional Beneš network (§1.5): two back-to-back
// (log n)-dimensional butterflies sharing their level-(log n) nodes. It has
// 2·log n + 1 levels of n nodes each. Levels 0..log n form a copy of Bn;
// levels log n..2·log n form the mirror copy. The level-0 nodes are the
// inputs and the level-(2 log n) nodes are the outputs. The Beneš network is
// rearrangeable: any permutation of inputs to outputs can be routed along
// edge-disjoint paths (see package route for the looping algorithm).
type Benes struct {
	*graph.Graph
	n   int
	dim int // log n
}

// NewBenes constructs the n-input Beneš network. n must be a power of two,
// n ≥ 2.
func NewBenes(n int) *Benes {
	if !bitutil.IsPow2(n) || n < 2 {
		panic(fmt.Sprintf("topology: Benes size %d is not a power of two ≥ 2", n))
	}
	dim := bitutil.Log2(n)
	be := &Benes{n: n, dim: dim}
	b := graph.NewBuilder(n * (2*dim + 1))
	for l := 0; l < 2*dim; l++ {
		pos := be.FlipPosition(l)
		for w := 0; w < n; w++ {
			u := be.Node(w, l)
			b.AddEdge(u, be.Node(w, l+1))
			b.AddEdge(u, be.Node(bitutil.FlipBit(w, dim, pos), l+1))
		}
	}
	be.Graph = b.Build()
	return be
}

// Inputs returns n.
func (be *Benes) Inputs() int { return be.n }

// Dim returns log n.
func (be *Benes) Dim() int { return be.dim }

// Levels returns 2·log n + 1.
func (be *Benes) Levels() int { return 2*be.dim + 1 }

// FlipPosition returns the bit position (1-based) flipped by cross edges
// between levels l and l+1: position l+1 in the first (forward) half and
// position 2·log n − l in the second (mirror) half.
func (be *Benes) FlipPosition(l int) int {
	if l < 0 || l >= 2*be.dim {
		panic(fmt.Sprintf("topology: Benes inter-level index %d out of range", l))
	}
	if l < be.dim {
		return l + 1
	}
	return 2*be.dim - l
}

// Node returns the id of the node in column w on level l, 0 ≤ l ≤ 2·log n.
func (be *Benes) Node(w, l int) int {
	if w < 0 || w >= be.n || l < 0 || l > 2*be.dim {
		panic(fmt.Sprintf("topology: Benes node (%d,%d) out of range", w, l))
	}
	return l*be.n + w
}

// Column returns the column of node id v.
func (be *Benes) Column(v int) int { return v % be.n }

// Level returns the level of node id v.
func (be *Benes) Level(v int) int { return v / be.n }
