package topology

import (
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/graph"
)

// CCC is the (log n)-dimensional cube-connected cycles network (§1.1): n
// cycles of log n nodes each. Node ⟨w,i⟩ has cycle label w ∈ {0,1}^log n and
// position i ∈ 1..log n within its cycle. Cycle edges join consecutive
// positions; cube edges join ⟨w,i⟩ and ⟨w′,i⟩ when w and w′ differ exactly
// in bit position i.
type CCC struct {
	*graph.Graph
	n   int // number of cycles; a power of two with log n ≥ 3
	dim int // log n, the cycle length
}

// NewCCC constructs CCCn. n must be a power of two with log n ≥ 3 (shorter
// cycles would degenerate into parallel edges).
func NewCCC(n int) *CCC {
	if !bitutil.IsPow2(n) || n < 8 {
		panic(fmt.Sprintf("topology: CCC size %d is not a power of two ≥ 8", n))
	}
	dim := bitutil.Log2(n)
	c := &CCC{n: n, dim: dim}
	// n·log n cycle edges plus n·log n / 2 cube edges, known up front.
	c.Graph = graph.BuildStream(n*dim, 3*n*dim/2, func(emit func(u, v int)) {
		for w := 0; w < n; w++ {
			for i := 1; i <= dim; i++ {
				// Cycle edge from position i to position i mod dim + 1.
				emit(c.Node(w, i), c.Node(w, i%dim+1))
				// Cube edge in dimension i, added once per pair.
				if bitutil.Bit(w, dim, i) == 0 {
					emit(c.Node(w, i), c.Node(bitutil.FlipBit(w, dim, i), i))
				}
			}
		}
	})
	// Xor-ing every cycle label with a mask, and rotating positions
	// together with the label bits, carry any node to any other.
	c.Graph.DeclareVertexTransitive()
	return c
}

// Cycles returns n, the number of cycles.
func (c *CCC) Cycles() int { return c.n }

// Dim returns log n, the cycle length.
func (c *CCC) Dim() int { return c.dim }

// Node returns the id of node ⟨w,i⟩, 1 ≤ i ≤ log n.
func (c *CCC) Node(w, i int) int {
	if w < 0 || w >= c.n || i < 1 || i > c.dim {
		panic(fmt.Sprintf("topology: CCC node (%d,%d) out of range", w, i))
	}
	return (i-1)*c.n + w
}

// CycleLabel returns the cycle label w of node id v.
func (c *CCC) CycleLabel(v int) int { return v % c.n }

// Position returns the in-cycle position i ∈ 1..log n of node id v.
func (c *CCC) Position(v int) int { return v/c.n + 1 }
