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
	dim int
}

// NewHypercube constructs Q_d for d ≥ 1.
func NewHypercube(d int) *Hypercube {
	if d < 1 {
		panic(fmt.Sprintf("topology: hypercube dimension %d out of range", d))
	}
	h := &Hypercube{dim: d}
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

// Dim returns d.
func (h *Hypercube) Dim() int { return h.dim }

// DeBruijn is the d-dimensional de Bruijn graph on 2^d nodes, with edges
// {w, shift(w)} and {w, shift(w)+1} where shift drops the most significant
// bit and appends a 0 (undirected; self-loops and coincident pairs skipped).
// It is one of the bounded-degree hypercube relatives discussed in §1.5.
type DeBruijn struct {
	*graph.Graph
	dim int
}

// NewDeBruijn constructs the d-dimensional de Bruijn graph, d ≥ 2.
func NewDeBruijn(d int) *DeBruijn {
	if d < 2 {
		panic(fmt.Sprintf("topology: de Bruijn dimension %d out of range", d))
	}
	g := &DeBruijn{dim: d}
	n := 1 << d
	b := graph.NewBuilder(n)
	seen := make(map[[2]int]bool)
	add := func(u, v int) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if seen[key] {
			return
		}
		seen[key] = true
		b.AddEdge(u, v)
	}
	for w := 0; w < n; w++ {
		s := (w << 1) & (n - 1)
		add(w, s)
		add(w, s|1)
	}
	g.Graph = b.Build()
	return g
}

// Dim returns d.
func (g *DeBruijn) Dim() int { return g.dim }

// ShuffleExchange is the d-dimensional shuffle-exchange graph on 2^d nodes:
// exchange edges {w, w⊕1} and shuffle edges {w, rotateLeft(w)} (undirected;
// fixed points skipped, duplicates kept out). Another §1.5 relative.
type ShuffleExchange struct {
	*graph.Graph
	dim int
}

// NewShuffleExchange constructs the d-dimensional shuffle-exchange graph,
// d ≥ 2.
func NewShuffleExchange(d int) *ShuffleExchange {
	if d < 2 {
		panic(fmt.Sprintf("topology: shuffle-exchange dimension %d out of range", d))
	}
	g := &ShuffleExchange{dim: d}
	n := 1 << d
	b := graph.NewBuilder(n)
	seen := make(map[[2]int]bool)
	add := func(u, v int) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if seen[key] {
			return
		}
		seen[key] = true
		b.AddEdge(u, v)
	}
	for w := 0; w < n; w++ {
		add(w, w^1)
		rot := ((w << 1) | (w >> (d - 1))) & (n - 1)
		add(w, rot)
	}
	g.Graph = b.Build()
	return g
}

// Dim returns d.
func (g *ShuffleExchange) Dim() int { return g.dim }
