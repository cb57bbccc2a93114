package route

import (
	"fmt"

	"repro/internal/topology"
)

// dirIndex is the precompiled directed-edge view of a butterfly that the
// flat simulation engine runs on. Every ordered node pair (u,v) joined by
// at least one edge gets one directed-edge id; ids are assigned in
// lexicographic (u,v) order, so iterating ids in increasing order is
// exactly the deterministic move order the map-based reference engine
// obtains by sorting — no per-step sort needed. Parallel edges collapse
// onto one id, matching the reference engine's node-pair queue keys.
type dirIndex struct {
	nodes int
	start []int32 // len nodes+1; out-edges of u are ids start[u]..start[u+1]
	to    []int32 // target node per directed-edge id, sorted within each u
}

// numDir returns the number of directed-edge ids.
func (ix *dirIndex) numDir() int { return len(ix.to) }

// edgeID returns the directed-edge id of u→v. The out-degree of a
// butterfly node is at most 4, so a linear scan beats a binary search.
func (ix *dirIndex) edgeID(u, v int32) int32 {
	for e := ix.start[u]; e < ix.start[u+1]; e++ {
		if ix.to[e] == v {
			return e
		}
	}
	panic(fmt.Sprintf("route: %d→%d is not an edge", u, v))
}

// build compiles b's index in place, reusing ix's arrays once they are
// large enough, so rebuilding a warmed index allocates nothing. Each
// node's at most 4 neighbours are insertion-sorted into place.
func (ix *dirIndex) build(b *topology.Butterfly) {
	g := b.Graph
	n := g.N()
	ix.nodes = n
	if cap(ix.start) < n+1 {
		ix.start = make([]int32, n+1)
	}
	if cap(ix.to) < 2*g.M() {
		ix.to = make([]int32, 0, 2*g.M())
	}
	ix.start = ix.start[:n+1]
	ix.to = ix.to[:0]
	for v := 0; v < n; v++ {
		first := len(ix.to)
		ix.start[v] = int32(first)
		for _, w := range g.Neighbors(v) {
			i := len(ix.to)
			for i > first && ix.to[i-1] > w {
				i--
			}
			if i > first && ix.to[i-1] == w {
				continue // parallel edge: one queue per node pair
			}
			ix.to = append(ix.to, w)
			copy(ix.to[i+1:], ix.to[i:])
			ix.to[i] = w
		}
	}
	ix.start[n] = int32(len(ix.to))
}
