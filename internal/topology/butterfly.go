// Package topology constructs the networks studied in the paper — the
// butterfly Bn with and without wraparound, the cube-connected cycles CCCn,
// the Beneš network, the mesh of stars MOS_{j,k} — together with the
// reference networks used by its embedding arguments (hypercube, complete
// and complete bipartite graphs, the doubled complete graph 2K_N).
//
// Terminology follows Section 1.1 of the paper: the (log n)-dimensional
// butterfly Bn has N = n(log n + 1) nodes in log n + 1 levels of n nodes
// each; node ⟨w,i⟩ lives on level i in column w; bit positions are numbered
// 1..log n from the most significant bit; and nodes ⟨w,i⟩ and ⟨w′,i+1⟩ are
// adjacent iff w = w′ or w and w′ differ exactly in bit position i+1.
package topology

import (
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/graph"
)

// Butterfly is the (log n)-dimensional butterfly network, with or without
// wraparound. Node ids are level-major: id = i·n + w for level i, column w.
type Butterfly struct {
	*graph.Graph
	n    int  // number of columns (inputs); a power of two ≥ 2
	dim  int  // log n
	wrap bool // true for Wn (levels 0 and log n identified)
}

// NewButterfly constructs Bn, the n-input butterfly without wraparound.
// n must be a power of two, n ≥ 2.
func NewButterfly(n int) *Butterfly {
	if !bitutil.IsPow2(n) || n < 2 {
		panic(fmt.Sprintf("topology: butterfly size %d is not a power of two ≥ 2", n))
	}
	dim := bitutil.Log2(n)
	b := &Butterfly{n: n, dim: dim, wrap: false}
	// Bn has exactly 2n·log n edges, so the CSR is built arena-backed from
	// a streaming generator — no intermediate edge list, two allocations
	// total even at millions of nodes.
	b.Graph = graph.BuildStream(n*(dim+1), 2*n*dim, func(emit func(u, v int)) {
		for i := 0; i < dim; i++ {
			for w := 0; w < n; w++ {
				u := b.Node(w, i)
				emit(u, b.Node(w, i+1))                            // straight edge
				emit(u, b.Node(bitutil.FlipBit(w, dim, i+1), i+1)) // cross edge flips bit i+1
			}
		}
	})
	return b
}

// NewWrappedButterfly constructs Wn, the butterfly with wraparound: the
// level-0 and level-(log n) nodes of each column are identified, giving
// n·log n nodes. n must be a power of two with log n ≥ 2 (W2 degenerates to
// self-loops and is rejected).
func NewWrappedButterfly(n int) *Butterfly {
	if !bitutil.IsPow2(n) || n < 4 {
		panic(fmt.Sprintf("topology: wrapped butterfly size %d is not a power of two ≥ 4", n))
	}
	dim := bitutil.Log2(n)
	b := &Butterfly{n: n, dim: dim, wrap: true}
	b.Graph = graph.BuildStream(n*dim, 2*n*dim, func(emit func(u, v int)) {
		for i := 0; i < dim; i++ {
			next := (i + 1) % dim
			for w := 0; w < n; w++ {
				u := b.Node(w, i)
				emit(u, b.Node(w, next))
				emit(u, b.Node(bitutil.FlipBit(w, dim, i+1), next))
			}
		}
	})
	// ColumnXorAutomorphism and LevelRotationAutomorphism together carry
	// any node to any other.
	b.Graph.DeclareVertexTransitive()
	return b
}

// Inputs returns n, the number of columns.
func (b *Butterfly) Inputs() int { return b.n }

// Dim returns log n, the dimension.
func (b *Butterfly) Dim() int { return b.dim }

// Wraparound reports whether the network is Wn rather than Bn.
func (b *Butterfly) Wraparound() bool { return b.wrap }

// Levels returns the number of levels: log n + 1 for Bn, log n for Wn.
func (b *Butterfly) Levels() int {
	if b.wrap {
		return b.dim
	}
	return b.dim + 1
}

// Node returns the id of node ⟨w,i⟩. For Wn, i is taken mod log n, so that
// level log n denotes level 0 as the identification requires.
func (b *Butterfly) Node(w, i int) int {
	if w < 0 || w >= b.n {
		panic(fmt.Sprintf("topology: column %d out of range", w))
	}
	if b.wrap {
		i = ((i % b.dim) + b.dim) % b.dim
	} else if i < 0 || i > b.dim {
		panic(fmt.Sprintf("topology: level %d out of range", i))
	}
	return i*b.n + w
}

// Column returns the column w of node id v.
func (b *Butterfly) Column(v int) int { return v % b.n }

// Level returns the level i of node id v.
func (b *Butterfly) Level(v int) int { return v / b.n }

// LevelNodes returns the ids of all nodes on level i.
func (b *Butterfly) LevelNodes(i int) []int {
	nodes := make([]int, b.n)
	for w := 0; w < b.n; w++ {
		nodes[w] = b.Node(w, i)
	}
	return nodes
}

// InputNodes returns the level-0 nodes (the inputs).
func (b *Butterfly) InputNodes() []int { return b.LevelNodes(0) }

// OutputNodes returns the level-(log n) nodes of Bn (the outputs). For Wn the
// outputs coincide with the inputs by identification.
func (b *Butterfly) OutputNodes() []int {
	if b.wrap {
		return b.LevelNodes(0)
	}
	return b.LevelNodes(b.dim)
}

// LevelReversalAutomorphism returns the node permutation of Lemma 2.1 for Bn:
// ⟨w,i⟩ ↦ ⟨reverse(w), log n − i⟩, an automorphism that maps each level L_i
// onto L_{log n − i}. It panics for Wn, where the corresponding symmetry is
// level rotation instead.
func (b *Butterfly) LevelReversalAutomorphism() []int {
	if b.wrap {
		panic("topology: level reversal automorphism is defined for Bn only")
	}
	perm := make([]int, b.N())
	for v := 0; v < b.N(); v++ {
		w, i := b.Column(v), b.Level(v)
		perm[v] = b.Node(bitutil.Reverse(w, b.dim), b.dim-i)
	}
	return perm
}

// ColumnXorAutomorphism returns the level-preserving automorphism
// ⟨w,i⟩ ↦ ⟨w⊕mask,i⟩ (the symmetry behind Lemma 2.2). It applies to both Bn
// and Wn.
func (b *Butterfly) ColumnXorAutomorphism(mask int) []int {
	if mask < 0 || mask >= b.n {
		panic("topology: xor mask out of range")
	}
	perm := make([]int, b.N())
	for v := 0; v < b.N(); v++ {
		w, i := b.Column(v), b.Level(v)
		perm[v] = b.Node(w^mask, i)
	}
	return perm
}

// LevelRotationAutomorphism returns the automorphism of Wn that advances all
// levels by one: ⟨w,i⟩ ↦ ⟨σ(w), i+1 mod log n⟩ where σ cyclically shifts
// every column bit from paper position p to position p+1 (mod log n), so the
// bit flipped between consecutive levels stays aligned. It panics for Bn.
func (b *Butterfly) LevelRotationAutomorphism() []int {
	if !b.wrap {
		panic("topology: level rotation automorphism is defined for Wn only")
	}
	perm := make([]int, b.N())
	for v := 0; v < b.N(); v++ {
		w, i := b.Column(v), b.Level(v)
		// Position p is bit index log n − p, so moving position p to p+1
		// shifts every bit one index down: a right rotation.
		rot := (w >> 1) | ((w & 1) << (b.dim - 1))
		perm[v] = b.Node(rot, (i+1)%b.dim)
	}
	return perm
}

// MonotonePath returns the unique monotone (level-increasing) path of
// Lemma 2.3 from input ⟨w0,0⟩ to output ⟨w1,log n⟩ of Bn, as a slice of
// log n + 1 node ids. At step i the path moves from level i to level i+1,
// choosing the cross edge exactly when w0 and w1 differ in bit i+1.
func (b *Butterfly) MonotonePath(w0, w1 int) []int {
	if b.wrap {
		panic("topology: MonotonePath is defined on Bn; use RotatedMonotonePath for Wn")
	}
	path := make([]int, b.dim+1)
	w := w0
	path[0] = b.Node(w, 0)
	for i := 0; i < b.dim; i++ {
		if bitutil.Bit(w, b.dim, i+1) != bitutil.Bit(w1, b.dim, i+1) {
			w = bitutil.FlipBit(w, b.dim, i+1)
		}
		path[i+1] = b.Node(w, i+1)
	}
	return path
}

// RotatedMonotonePath returns, for Wn, the length-(log n) path that starts at
// ⟨w0,start⟩, advances one level per step (mod log n), and ends at
// ⟨w1,start⟩, fixing bit i+1 when crossing from level i to level i+1. This is
// the "middle leg" used by the K_N-into-Wn embedding of Theorem 4.3.
func (b *Butterfly) RotatedMonotonePath(w0, w1, start int) []int {
	if !b.wrap {
		panic("topology: RotatedMonotonePath is defined for Wn only")
	}
	path := make([]int, b.dim+1)
	w := w0
	path[0] = b.Node(w, start)
	for s := 0; s < b.dim; s++ {
		i := (start + s) % b.dim
		if bitutil.Bit(w, b.dim, i+1) != bitutil.Bit(w1, b.dim, i+1) {
			w = bitutil.FlipBit(w, b.dim, i+1)
		}
		path[s+1] = b.Node(w, i+1)
	}
	return path
}
