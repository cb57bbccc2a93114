package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// path returns the path graph on n nodes.
func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// cycle returns the cycle graph on n nodes (n ≥ 3).
func cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// complete returns K_n.
func complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: N=%d M=%d", g.N(), g.M())
	}
	if g.Diameter() != 0 {
		t.Errorf("empty diameter = %d", g.Diameter())
	}
	if !g.IsConnected() {
		t.Errorf("empty graph should count as connected")
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	for _, e := range [][2]int{{-1, 0}, {0, 3}, {1, 1}} {
		e := e
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d,%d) did not panic", e[0], e[1])
				}
			}()
			b.AddEdge(e[0], e[1])
		}()
	}
}

func TestDegreesAndAdjacency(t *testing.T) {
	g := path(5)
	wantDeg := []int{1, 2, 2, 2, 1}
	for v, want := range wantDeg {
		if got := g.Degree(v); got != want {
			t.Errorf("deg(%d) = %d, want %d", v, got, want)
		}
	}
	if !g.HasEdge(2, 3) || g.HasEdge(0, 4) {
		t.Errorf("HasEdge wrong")
	}
	if g.MinDegree() != 1 || g.MaxDegree() != 2 {
		t.Errorf("min/max degree = %d/%d", g.MinDegree(), g.MaxDegree())
	}
}

func TestParallelEdges(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
	if g.Degree(0) != 3 || g.Degree(1) != 3 {
		t.Errorf("degrees = %d,%d", g.Degree(0), g.Degree(1))
	}
	if got := g.EdgeMultiplicity(0, 1); got != 3 {
		t.Errorf("multiplicity = %d", got)
	}
}

func TestEdgesNormalized(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(3, 1)
	g := b.Build()
	e := g.Edge(0)
	if e.U != 1 || e.V != 3 {
		t.Errorf("edge stored as {%d,%d}, want {1,3}", e.U, e.V)
	}
}

func TestBuilderReuseDoesNotMutateBuilt(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g1 := b.Build()
	b.AddEdge(1, 2)
	g2 := b.Build()
	if g1.M() != 1 || g2.M() != 2 {
		t.Errorf("M: g1=%d g2=%d", g1.M(), g2.M())
	}
}

func TestBFSOnPath(t *testing.T) {
	g := path(6)
	dist := g.BFS(0)
	for v := 0; v < 6; v++ {
		if int(dist[v]) != v {
			t.Errorf("dist[%d] = %d", v, dist[v])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.Build()
	dist := g.BFS(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Errorf("unreachable distances = %d,%d, want -1", dist[2], dist[3])
	}
	if g.Eccentricity(0) != -1 {
		t.Errorf("eccentricity of disconnected = %d, want -1", g.Eccentricity(0))
	}
	if g.Diameter() != -1 {
		t.Errorf("diameter of disconnected = %d, want -1", g.Diameter())
	}
}

func TestDiameterKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path6", path(6), 5},
		{"cycle6", cycle(6), 3},
		{"cycle7", cycle(7), 3},
		{"K5", complete(5), 1},
		{"singleton", NewBuilder(1).Build(), 0},
	}
	for _, c := range cases {
		if got := c.g.Diameter(); got != c.want {
			t.Errorf("%s diameter = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	comp, count := g.Components()
	if count != 4 {
		t.Fatalf("count = %d, want 4 (two nontrivial + two isolated)", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("0,1,2 should share a component")
	}
	if comp[3] != comp[4] {
		t.Errorf("3,4 should share a component")
	}
	if comp[5] == comp[6] || comp[5] == comp[0] {
		t.Errorf("isolated nodes must be their own components")
	}
	if g.IsConnected() {
		t.Errorf("graph should be disconnected")
	}
	if !cycle(5).IsConnected() {
		t.Errorf("cycle should be connected")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := cycle(6)
	sg := g.InducedSubgraph([]int{0, 1, 2, 4})
	// Edges within {0,1,2,4}: {0,1},{1,2}. Node 4 is isolated in the subgraph.
	if sg.N() != 4 || sg.M() != 2 {
		t.Fatalf("subgraph N=%d M=%d, want 4,2", sg.N(), sg.M())
	}
	if sg.FromParent[3] != -1 || sg.FromParent[5] != -1 {
		t.Errorf("FromParent should be -1 for excluded nodes")
	}
	if int(sg.ToParent[sg.FromParent[4]]) != 4 {
		t.Errorf("round-trip mapping broken")
	}
	if sg.Degree(int(sg.FromParent[4])) != 0 {
		t.Errorf("node 4 should be isolated in subgraph")
	}
}

func TestInducedSubgraphRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate nodes did not panic")
		}
	}()
	cycle(4).InducedSubgraph([]int{0, 1, 1})
}

func TestDegreeHistogram(t *testing.T) {
	g := path(5)
	hist := g.DegreeHistogram()
	if hist[1] != 2 || hist[2] != 3 {
		t.Errorf("hist = %v", hist)
	}
}

func TestHandshakeProperty(t *testing.T) {
	// Sum of degrees is twice the edge count, on random multigraphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		b := NewBuilder(n)
		m := rng.Intn(60)
		for i := 0; i < m; i++ {
			u := rng.Intn(n)
			v := rng.Intn(n)
			if u == v {
				v = (v + 1) % n
			}
			b.AddEdge(u, v)
		}
		g := b.Build()
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeighborsMatchEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 15
	b := NewBuilder(n)
	for i := 0; i < 40; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		b.AddEdge(u, v)
	}
	g := b.Build()
	for v := 0; v < n; v++ {
		nb := g.Neighbors(v)
		ie := g.IncidentEdges(v)
		if len(nb) != len(ie) {
			t.Fatalf("adjacency slot mismatch at %d", v)
		}
		for i, w := range nb {
			e := g.Edge(int(ie[i]))
			if !(int(e.U) == v && e.V == w) && !(int(e.V) == v && e.U == w) {
				t.Fatalf("edge %v does not join %d and %d", e, v, w)
			}
		}
	}
}

// IncidentEdges returns the edge indices incident to v (with multiplicity).
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) IncidentEdges(v int) []int32 {
	return g.adjEdge[g.adjStart[v]:g.adjStart[v+1]]
}
