// Package expansion implements both sides of the paper's §4 expansion
// bounds. The upper bounds are explicit sets — sub-butterflies and siblings
// of sub-butterflies (Lemmas 4.1, 4.4, 4.7, 4.10) — whose boundaries are
// measured exactly. The lower bounds are executable credit-distribution
// schemes (Lemmas 4.2, 4.5, 4.8, 4.11) that certify, for any concrete set
// A, a floor on C(A,Ā) or |N(A)|.
package expansion

import (
	"fmt"

	"repro/internal/topology"
)

// WnEdgeWitness returns the Lemma 4.1 witness set: a d-dimensional
// sub-butterfly of Wn with k = 2^d·(d+1) nodes and edge boundary exactly
// 4·2^d = (4+o(1))k/log k. Requires 1 ≤ d ≤ log n − 2 so that the
// sub-butterfly's inputs and outputs have all four outside edges.
func WnEdgeWitness(w *topology.Butterfly, d int) []int {
	if !w.Wraparound() {
		panic("expansion: WnEdgeWitness needs Wn")
	}
	if d < 1 || d > w.Dim()-2 {
		panic(fmt.Sprintf("expansion: witness dimension %d out of range for W%d", d, w.Inputs()))
	}
	return w.WrappedSubButterflyNodes(0, d, 0)
}

// WnNodeWitness returns the Lemma 4.4 witness set: the union of the two
// d-dimensional sub-butterflies B′ and B″ contained in a (d+1)-dimensional
// sub-butterfly B of Wn, i.e. B minus its input level. The set has
// k = 2·2^d·(d+1) nodes and neighbor set of size 3·2^(d+1): the inputs of B
// plus two outside neighbors per output.
func WnNodeWitness(w *topology.Butterfly, d int) []int {
	if !w.Wraparound() {
		panic("expansion: WnNodeWitness needs Wn")
	}
	if d < 1 || d+1 > w.Dim()-2 {
		panic(fmt.Sprintf("expansion: witness dimension %d out of range for W%d", d, w.Inputs()))
	}
	big := w.WrappedSubButterflyNodes(0, d+1, 0)
	// Drop local level 0 (the first 2^(d+1) entries: Nodes are level-major).
	return big[1<<(d+1):]
}

// BnEdgeWitness returns the Lemma 4.7 witness: a d-dimensional sub-butterfly
// of Bn whose level 0 lies on level 0 of Bn — a component of Bn[0,d]. Only
// its outputs have outside edges, so the boundary is 2·2^d =
// (2+o(1))k/log k.
func BnEdgeWitness(b *topology.Butterfly, d int) []int {
	if b.Wraparound() {
		panic("expansion: BnEdgeWitness needs Bn")
	}
	if d < 1 || d >= b.Dim() {
		panic(fmt.Sprintf("expansion: witness dimension %d out of range for B%d", d, b.Inputs()))
	}
	return b.LevelRangeComponents(0, d)[0].Nodes()
}

// BnNodeWitness returns the Lemma 4.10 witness: the two d-dimensional
// sub-butterflies contained in a (d+1)-dimensional sub-butterfly whose
// outputs lie on level log n of Bn. The neighbor set is just the inputs of
// the enclosing sub-butterfly, 2^(d+1) = (1+o(1))k/log k nodes.
func BnNodeWitness(b *topology.Butterfly, d int) []int {
	if b.Wraparound() {
		panic("expansion: BnNodeWitness needs Bn")
	}
	if d < 1 || d+1 > b.Dim() {
		panic(fmt.Sprintf("expansion: witness dimension %d out of range for B%d", d, b.Inputs()))
	}
	big := b.LevelRangeComponents(b.Dim()-d-1, b.Dim())[0].Nodes()
	return big[1<<(d+1):]
}
