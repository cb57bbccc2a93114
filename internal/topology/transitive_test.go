package topology

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/graph"
)

// TestVertexTransitiveMark pins the node classes each constructor
// declares, which let the exact engine search a minimum once per class,
// rooted at the class's representative (its lowest node): a wrong
// declaration would certify rooted minima as global ones. For every node
// it checks an automorphism that carries the node onto its class
// representative and maps every class onto itself. Wn, CCCn and Q_d
// declare one class and are checked at their two smallest sizes (W4 has
// parallel edges), by searching for an automorphism that takes node 0 to
// the node and inverting it. Bn declares level i with level log n − i,
// ⌊log n/2⌋ + 1 classes, and its automorphism is explicit: column XOR,
// composed with level reversal (Lemma 2.1) for levels above the middle.
func TestVertexTransitiveMark(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"W4", NewWrappedButterfly(4).Graph},
		{"W8", NewWrappedButterfly(8).Graph},
		{"CCC8", NewCCC(8).Graph},
		{"CCC16", NewCCC(16).Graph},
		{"Q1", NewHypercube(1).Graph},
		{"Q2", NewHypercube(2).Graph},
	} {
		if c.g.Orbits() != 1 {
			t.Errorf("%s: %d node classes, want 1", c.name, c.g.Orbits())
		}
		for v := 0; v < c.g.N(); v++ {
			perm := automorphismTaking0To(c.g, v)
			if perm == nil {
				t.Errorf("%s: no automorphism takes node 0 to node %d", c.name, v)
				break
			}
			inverse := make([]int, len(perm))
			for u, p := range perm {
				inverse[p] = u
			}
			checkCarriesToRepresentative(t, c.name, c.g, v, inverse)
		}
	}
	for _, n := range []int{2, 4, 8, 16} {
		b := NewButterfly(n)
		name := fmt.Sprintf("B%d", n)
		if got, want := b.Orbits(), b.Dim()/2+1; got != want {
			t.Errorf("%s: %d node classes, want %d", name, got, want)
		}
		rev := b.LevelReversalAutomorphism()
		for v := 0; v < b.N(); v++ {
			w, i := b.Column(v), b.Level(v)
			perm := b.ColumnXorAutomorphism(w)
			if 2*i > b.Dim() {
				xor := b.ColumnXorAutomorphism(bitutil.Reverse(w, b.Dim()))
				for u := range perm {
					perm[u] = xor[rev[u]]
				}
			}
			checkCarriesToRepresentative(t, name, b.Graph, v, perm)
		}
	}
}

// checkCarriesToRepresentative fails the test unless perm is an
// automorphism of g that maps every declared class onto itself and carries
// v onto the lowest node of v's class, and every class has a node.
func checkCarriesToRepresentative(t *testing.T, name string, g *graph.Graph, v int, perm []int) {
	t.Helper()
	if !mapsEdgeMultiset(g, perm) {
		t.Fatalf("%s: the permutation for node %d is not an automorphism", name, v)
	}
	rep := make([]int, g.Orbits())
	for j := range rep {
		rep[j] = -1
	}
	for u := g.N() - 1; u >= 0; u-- {
		c := g.Orbit(u)
		if c < 0 || c >= g.Orbits() {
			t.Fatalf("%s: node %d in class %d of %d", name, u, c, g.Orbits())
		}
		if g.Orbit(perm[u]) != c {
			t.Fatalf("%s: the automorphism for node %d takes node %d from class %d to class %d",
				name, v, u, c, g.Orbit(perm[u]))
		}
		rep[c] = u
	}
	for j, r := range rep {
		if r < 0 {
			t.Fatalf("%s: declared class %d has no node", name, j)
		}
	}
	if want := rep[g.Orbit(v)]; perm[v] != want {
		t.Fatalf("%s: node %d is carried onto %d, not onto its class representative %d", name, v, perm[v], want)
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
