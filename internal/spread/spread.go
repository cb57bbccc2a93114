// Package spread simulates information dissemination, the paper's §1.3
// motivation for node expansion: if k nodes hold a piece of information,
// one communication step grows the informed set to at least k + NE(G,k)
// nodes, so the time to inform everyone is governed by the expansion
// function. The load-balancing algorithms of [8] exploit exactly this.
package spread

import (
	"fmt"

	"repro/internal/cut"
	"repro/internal/graph"
)

// Step grows the informed set by one synchronous round: every informed node
// informs all its neighbors. It returns the new informed set (sorted).
func Step(g *graph.Graph, informed []int) []int {
	in := make([]bool, g.N())
	for _, v := range informed {
		in[v] = true
	}
	for _, v := range informed {
		for _, u := range g.Neighbors(v) {
			in[u] = true
		}
	}
	out := make([]int, 0, len(informed))
	for v, ok := range in {
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// Trace is the per-round record of a dissemination run.
type Trace struct {
	// Sizes[t] is the informed-set size after t rounds (Sizes[0] = |seed|).
	Sizes []int
	// Boundary[t] is |N(S_t)|, the node expansion actually realized going
	// into round t+1; Sizes[t+1] = Sizes[t] + Boundary[t].
	Boundary []int
	// Rounds is the number of rounds until everything is informed.
	Rounds int
}

// Run disseminates from seed until the whole graph is informed (requires a
// connected graph; it errors out after N rounds otherwise).
func Run(g *graph.Graph, seed []int) (Trace, error) {
	if len(seed) == 0 {
		return Trace{}, fmt.Errorf("spread: empty seed")
	}
	var tr Trace
	informed := append([]int(nil), seed...)
	tr.Sizes = append(tr.Sizes, len(informed))
	for len(informed) < g.N() {
		if tr.Rounds > g.N() {
			return tr, fmt.Errorf("spread: not fully informed after %d rounds (disconnected?)", tr.Rounds)
		}
		tr.Boundary = append(tr.Boundary, len(cut.NodeBoundary(g, informed)))
		informed = Step(g, informed)
		tr.Sizes = append(tr.Sizes, len(informed))
		tr.Rounds++
	}
	return tr, nil
}
