// Package embed implements the embedding machinery of §1.4 and the concrete
// embeddings the paper's proofs rely on: K_{n,n} and 2K_N into Bn, K_N into
// Wn and Bn, B_{n·2^j} into Bn (Lemma 2.10), Bn into the mesh of stars
// (Lemma 2.11), the Beneš network into Bn (Lemma 2.5), Wn into CCCn
// (Lemma 3.3), and Bn into the hypercube (§1.5).
//
// An embedding maps guest nodes to host nodes and guest edges to host
// paths; its load, congestion and dilation (§1.4) turn cuts of the host
// into cuts of the guest and so yield the lower bounds on bisection width
// and edge expansion used throughout the paper.
package embed

import (
	"repro/internal/graph"
)

// Embedding is an embedding of Guest into Host: NodeMap sends guest nodes to
// host nodes, and Paths[e] is the host path realizing guest edge e, given as
// a node sequence starting at NodeMap of one endpoint and ending at the
// other. A single-node path (length 0) is allowed when both endpoints map to
// the same host node, as happens in Lemma 2.10 when butterfly levels
// collapse.
type Embedding struct {
	Guest   *graph.Graph
	Host    *graph.Graph
	NodeMap []int
	Paths   [][]int
}

// Load returns the maximum number of guest nodes mapped to one host node.
func (e *Embedding) Load() int {
	count := make([]int, e.Host.N())
	max := 0
	for _, h := range e.NodeMap {
		count[h]++
		if count[h] > max {
			max = count[h]
		}
	}
	return max
}

// Dilation returns the length (in edges) of the longest path.
func (e *Embedding) Dilation() int {
	max := 0
	for _, p := range e.Paths {
		if len(p)-1 > max {
			max = len(p) - 1
		}
	}
	return max
}

// PairCongestion returns, for every unordered host node pair joined by an
// edge, the number of guest paths whose hops cross it. All host networks in
// this repository are simple graphs, so a pair identifies an edge.
func (e *Embedding) PairCongestion() map[graph.Edge]int {
	cong := make(map[graph.Edge]int)
	for _, p := range e.Paths {
		for i := 0; i+1 < len(p); i++ {
			u, v := int32(p[i]), int32(p[i+1])
			if u > v {
				u, v = v, u
			}
			cong[graph.Edge{U: u, V: v}]++
		}
	}
	return cong
}

// Congestion returns the maximum number of paths crossing any host edge.
func (e *Embedding) Congestion() int {
	max := 0
	for _, c := range e.PairCongestion() {
		if c > max {
			max = c
		}
	}
	return max
}

// UniformCongestion reports whether every host edge carries exactly the same
// number of paths, and that number. Several of the paper's embeddings
// (Lemmas 2.10 and 2.11) promise exact uniform congestion.
func (e *Embedding) UniformCongestion() (int, bool) {
	cong := e.PairCongestion()
	// Every host edge must appear, with equal count.
	want := -1
	for _, he := range e.Host.Edges() {
		c := cong[he]
		if want < 0 {
			want = c
		} else if c != want {
			return 0, false
		}
	}
	return want, true
}

// BisectionLowerBound computes the §1.4 bound: if the guest K has bisection
// width guestBW and the embedding has load 1 onto a host with the same node
// count, then BW(host) ≥ ⌈guestBW / congestion⌉.
func (e *Embedding) BisectionLowerBound(guestBW int) int {
	if e.Load() != 1 || e.Guest.N() != e.Host.N() {
		panic("embed: bisection lower bound needs a load-1 embedding onto an equal-size host")
	}
	c := e.Congestion()
	if c == 0 {
		return 0
	}
	return ceilDiv(guestBW, c)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// CompleteBisectionWidth returns BW(K_N) = ⌊N/2⌋·⌈N/2⌉ and
// DoubledCompleteBisectionWidth twice that, the guest widths used by the
// §1.4 arguments (the paper quotes N²/4 and N²/2 for even N).
func CompleteBisectionWidth(n int) int { return (n / 2) * ((n + 1) / 2) }

// DoubledCompleteBisectionWidth returns BW(2K_N).
func DoubledCompleteBisectionWidth(n int) int { return 2 * CompleteBisectionWidth(n) }
