package topology

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestVertexTransitiveMark pins the vertex-transitive declaration, which
// lets the exact engine root its searches and its EE(g, m) table: a wrong
// mark would certify rooted minima as global ones. Each marked family (Wn,
// CCCn, Q_d) is checked at its two smallest sizes — W4 has parallel edges
// — by finding, for every node v, an automorphism that takes node 0 to v
// and maps the edge multiset onto itself. Bn must stay unmarked, and the
// search must find it is not vertex-transitive.
func TestVertexTransitiveMark(t *testing.T) {
	for _, c := range []struct {
		name       string
		g          *graph.Graph
		transitive bool
	}{
		{"W4", NewWrappedButterfly(4).Graph, true},
		{"W8", NewWrappedButterfly(8).Graph, true},
		{"CCC8", NewCCC(8).Graph, true},
		{"CCC16", NewCCC(16).Graph, true},
		{"Q1", NewHypercube(1).Graph, true},
		{"Q2", NewHypercube(2).Graph, true},
		{"B4", NewButterfly(4).Graph, false},
		{"B8", NewButterfly(8).Graph, false},
	} {
		if c.g.VertexTransitive() != c.transitive {
			t.Errorf("%s: VertexTransitive() = %v, want %v", c.name, c.g.VertexTransitive(), c.transitive)
		}
		missing := -1
		for v := 0; v < c.g.N(); v++ {
			perm := automorphismTaking0To(c.g, v)
			if perm == nil {
				missing = v
				break
			}
			if !mapsEdgeMultiset(c.g, perm) {
				t.Fatalf("%s: the permutation found for node %d is not an automorphism", c.name, v)
			}
		}
		if c.transitive && missing >= 0 {
			t.Errorf("%s: no automorphism takes node 0 to node %d", c.name, missing)
		}
		if !c.transitive && missing < 0 {
			t.Errorf("%s: every node is the image of node 0, want a node that is not", c.name)
		}
	}
}

// automorphismTaking0To returns a permutation of g's nodes that maps node
// 0 to v and every node pair onto a pair joined by as many edges, or nil
// if there is none. Nodes are mapped in BFS order from 0, each onto an
// unused neighbour of its BFS parent's image; a choice that breaks a
// degree or a multiplicity towards an already mapped node is undone.
func automorphismTaking0To(g *graph.Graph, v int) []int {
	n := g.N()
	order, parent := []int{0}, make([]int, n)
	seen := make([]bool, n)
	seen[0] = true
	for head := 0; head < len(order); head++ {
		for _, u := range g.Neighbors(order[head]) {
			if !seen[u] {
				seen[u], parent[u] = true, order[head]
				order = append(order, int(u))
			}
		}
	}
	if len(order) != n {
		return nil // disconnected: not needed by the networks tested here
	}
	perm, used := make([]int, n), make([]bool, n)
	fits := func(idx, x, y int) bool {
		if g.Degree(x) != g.Degree(y) {
			return false
		}
		for _, z := range order[:idx] {
			if g.EdgeMultiplicity(x, z) != g.EdgeMultiplicity(y, perm[z]) {
				return false
			}
		}
		return true
	}
	var place func(idx int) bool
	place = func(idx int) bool {
		if idx == n {
			return true
		}
		x := order[idx]
		cands := []int32{int32(v)}
		if idx > 0 {
			cands = g.Neighbors(perm[parent[x]])
		}
		for _, y := range cands {
			if used[y] || !fits(idx, x, int(y)) {
				continue
			}
			perm[x], used[y] = int(y), true
			if place(idx + 1) {
				return true
			}
			used[y] = false
		}
		return false
	}
	if !place(0) {
		return nil
	}
	return perm
}

// mapsEdgeMultiset reports whether perm is a bijection carrying g's edge
// multiset onto itself.
func mapsEdgeMultiset(g *graph.Graph, perm []int) bool {
	seen := make([]bool, g.N())
	for _, p := range perm {
		if seen[p] {
			return false
		}
		seen[p] = true
	}
	byEnds := func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	}
	edges := slices.Clone(g.Edges())
	slices.SortFunc(edges, byEnds)
	images := make([]graph.Edge, 0, len(edges))
	for _, e := range edges {
		u, w := int32(perm[e.U]), int32(perm[e.V])
		images = append(images, graph.Edge{U: min(u, w), V: max(u, w)})
	}
	slices.SortFunc(images, byEnds)
	return slices.Equal(edges, images)
}
