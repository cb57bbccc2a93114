package topology

import (
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/graph"
)

// NewComplete returns the complete graph K_N.
func NewComplete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// NewDoubledComplete returns 2K_N, the complete graph with every edge
// doubled — the guest graph of the classical BW(Bn) ≥ n/2 lower bound
// (§1.4).
func NewDoubledComplete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// NewCompleteBipartite returns K_{a,b} with left nodes 0..a−1 and right
// nodes a..a+b−1 — the guest graph of Lemma 3.1.
func NewCompleteBipartite(a, b int) *graph.Graph {
	builder := graph.NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			builder.AddEdge(u, a+v)
		}
	}
	return builder.Build()
}

// Hypercube is the d-dimensional hypercube Q_d on 2^d nodes; node labels are
// the d-bit numbers and edges join labels at Hamming distance 1. The
// butterfly embeds in the hypercube with constant load, congestion and
// dilation (§1.5), which package embed demonstrates.
type Hypercube struct {
	*graph.Graph
}

// NewHypercube constructs Q_d for d ≥ 1.
func NewHypercube(d int) *Hypercube {
	if d < 1 {
		panic(fmt.Sprintf("topology: hypercube dimension %d out of range", d))
	}
	h := &Hypercube{}
	n := 1 << d
	b := graph.NewBuilder(n)
	for w := 0; w < n; w++ {
		for pos := 1; pos <= d; pos++ {
			if bitutil.Bit(w, d, pos) == 0 {
				b.AddEdge(w, bitutil.FlipBit(w, d, pos))
			}
		}
	}
	// Xor-ing every label with a mask carries any node to any other.
	h.Graph = b.Build().DeclareVertexTransitive()
	return h
}
