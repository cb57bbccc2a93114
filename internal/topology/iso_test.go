package topology

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
)

// Isomorphic reports whether g and h are isomorphic as undirected
// multigraphs. It is a backtracking search with iterated degree-signature
// pruning, intended for the small graphs used in structural tests (a few
// dozen nodes, e.g. verifying that the components of Bn[i,j] are copies of
// B_{2^(j−i)} as Lemma 2.4 claims). It is exponential in the worst case and
// should not be fed large graphs.
func Isomorphic(g, h *graph.Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	n := g.N()
	if n == 0 {
		return true
	}

	// Canonical iterated-degree colors: isomorphic graphs always produce
	// identical color multisets, so a mismatch rejects immediately and
	// equal colors gate the candidate pairs during backtracking. (A hash
	// collision can only merge color classes, which costs search time but
	// never wrongly rejects.)
	gc := refineColors(g)
	hc := refineColors(h)
	if !sameMultiset(gc, hc) {
		return false
	}

	// Order g's nodes so that each node (after the first of its component)
	// is adjacent to an earlier node; this makes the consistency check
	// prune early.
	order := searchOrder(g)

	hUsed := make([]bool, n)
	mapping := make([]int32, n) // g node -> h node
	for i := range mapping {
		mapping[i] = -1
	}

	var try func(idx int) bool
	try = func(idx int) bool {
		if idx == n {
			return true
		}
		v := order[idx]
		for u := 0; u < n; u++ {
			if hUsed[u] || gc[v] != hc[u] {
				continue
			}
			if !consistent(g, h, mapping, int(v), u) {
				continue
			}
			mapping[v] = int32(u)
			hUsed[u] = true
			if try(idx + 1) {
				return true
			}
			mapping[v] = -1
			hUsed[u] = false
		}
		return false
	}
	return try(0)
}

// consistent checks that mapping g-node v to h-node u preserves edge
// multiplicities to all previously mapped neighbors, in both directions.
func consistent(g, h *graph.Graph, mapping []int32, v, u int) bool {
	for _, w := range g.Neighbors(v) {
		if mu := mapping[w]; mu >= 0 {
			if g.EdgeMultiplicity(v, int(w)) != h.EdgeMultiplicity(u, int(mu)) {
				return false
			}
		}
	}
	// Symmetric count: u must have exactly as many edges into the image of
	// the mapped set as v has into the mapped set, so u cannot hide extra
	// adjacencies to already-mapped nodes.
	gCount, hCount := 0, 0
	for _, w := range g.Neighbors(v) {
		if mapping[w] >= 0 {
			gCount++
		}
	}
	mappedH := make(map[int32]bool, len(mapping))
	for _, mu := range mapping {
		if mu >= 0 {
			mappedH[mu] = true
		}
	}
	for _, w := range h.Neighbors(u) {
		if mappedH[w] {
			hCount++
		}
	}
	return gCount == hCount
}

// refineColors computes a canonical iterated-degree coloring: node colors are
// FNV-style hashes of (own color, sorted neighbor colors), iterated to a
// fixed depth. Because the computation depends only on the isomorphism type
// of the node's neighborhood, corresponding nodes of isomorphic graphs get
// equal colors.
func refineColors(g *graph.Graph) []int64 {
	n := g.N()
	colors := make([]int64, n)
	for v := 0; v < n; v++ {
		colors[v] = int64(g.Degree(v))
	}
	next := make([]int64, n)
	// n rounds always suffice for the refinement to stabilize; cap the
	// depth to keep the filter cheap on the larger test graphs.
	rounds := n
	if rounds > 32 {
		rounds = 32
	}
	buf := make([]int64, 0, g.MaxDegree())
	for round := 0; round < rounds; round++ {
		for v := 0; v < n; v++ {
			nb := g.Neighbors(v)
			buf = buf[:0]
			for _, w := range nb {
				buf = append(buf, colors[w])
			}
			sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
			h := int64(1469598103934665603) ^ colors[v]
			h *= 1099511628211
			for _, c := range buf {
				h = (h ^ c) * 1099511628211
			}
			next[v] = h
		}
		colors, next = next, colors
	}
	return colors
}

func sameMultiset(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[int64]int, len(a))
	for _, c := range a {
		counts[c]++
	}
	for _, c := range b {
		counts[c]--
		if counts[c] < 0 {
			return false
		}
	}
	return true
}

// searchOrder returns a node order in which each node after the first of its
// component is adjacent to some earlier node.
func searchOrder(g *graph.Graph) []int32 {
	n := g.N()
	order := make([]int32, 0, n)
	seen := make([]bool, n)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		queue := []int32{int32(start)}
		seen[start] = true
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			order = append(order, v)
			for _, w := range g.Neighbors(int(v)) {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return order
}

// path returns the path graph on n nodes.
func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// cycle returns the cycle graph on n nodes (n ≥ 3).
func cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// relabel returns g with nodes permuted by a random permutation.
func relabel(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	n := g.N()
	perm := rng.Perm(n)
	b := graph.NewBuilder(n)
	for _, e := range g.Edges() {
		b.AddEdge(perm[e.U], perm[e.V])
	}
	return b.Build()
}

func TestIsomorphicTrivial(t *testing.T) {
	if !Isomorphic(graph.NewBuilder(0).Build(), graph.NewBuilder(0).Build()) {
		t.Errorf("empty graphs should be isomorphic")
	}
	if !Isomorphic(graph.NewBuilder(3).Build(), graph.NewBuilder(3).Build()) {
		t.Errorf("edgeless graphs should be isomorphic")
	}
	if Isomorphic(graph.NewBuilder(2).Build(), graph.NewBuilder(3).Build()) {
		t.Errorf("different orders should not be isomorphic")
	}
}

func TestIsomorphicRelabel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range []*graph.Graph{path(7), cycle(8), NewComplete(5)} {
		for trial := 0; trial < 5; trial++ {
			h := relabel(g, rng)
			if !Isomorphic(g, h) {
				t.Errorf("graph should be isomorphic to its relabeling")
			}
		}
	}
}

func TestIsomorphicNegative(t *testing.T) {
	if Isomorphic(path(6), cycle(6)) {
		t.Errorf("P6 vs C6")
	}
	// Same degree sequence, non-isomorphic: C6 vs two triangles.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 3)
	twoTriangles := b.Build()
	if Isomorphic(cycle(6), twoTriangles) {
		t.Errorf("C6 vs 2×C3 should not be isomorphic")
	}
}

func TestIsomorphicMultigraph(t *testing.T) {
	// Double edge {0,1} plus single {1,2} vs single {0,1} plus double {1,2}
	// are isomorphic (swap 0 and 2); vs all-single path with an extra
	// parallel on a different pair is not.
	b1 := graph.NewBuilder(3)
	b1.AddEdge(0, 1)
	b1.AddEdge(0, 1)
	b1.AddEdge(1, 2)
	g1 := b1.Build()

	b2 := graph.NewBuilder(3)
	b2.AddEdge(0, 1)
	b2.AddEdge(1, 2)
	b2.AddEdge(1, 2)
	g2 := b2.Build()

	if !Isomorphic(g1, g2) {
		t.Errorf("mirror multigraphs should be isomorphic")
	}

	// Triangle vs double-edge+single-edge: same n and m, different structure.
	b3 := graph.NewBuilder(3)
	b3.AddEdge(0, 1)
	b3.AddEdge(1, 2)
	b3.AddEdge(2, 0)
	g3 := b3.Build()
	if Isomorphic(g1, g3) {
		t.Errorf("multigraph vs triangle should not be isomorphic")
	}
}

func TestIsomorphicRandomRegularish(t *testing.T) {
	// Random graphs relabeled must stay isomorphic; adding one edge must
	// break it (edge counts differ).
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(6)
		b := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		if !Isomorphic(g, relabel(g, rng)) {
			t.Fatalf("trial %d: relabeled graph not detected isomorphic", trial)
		}
	}
}

func TestIsomorphicDisconnected(t *testing.T) {
	// P3 + P1 vs P2 + P2: same node and edge counts, not isomorphic.
	b1 := graph.NewBuilder(4)
	b1.AddEdge(0, 1)
	b1.AddEdge(1, 2)
	g1 := b1.Build()
	b2 := graph.NewBuilder(4)
	b2.AddEdge(0, 1)
	b2.AddEdge(2, 3)
	g2 := b2.Build()
	if Isomorphic(g1, g2) {
		t.Errorf("P3+P1 vs P2+P2 should not be isomorphic")
	}
}
