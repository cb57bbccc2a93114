package cut

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/topology"
)

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func TestCapacityOnPath(t *testing.T) {
	g := pathGraph(6)
	c := FromSet(g, []int{0, 1, 2})
	if c.Capacity() != 1 {
		t.Errorf("capacity = %d, want 1", c.Capacity())
	}
	c2 := FromSet(g, []int{0, 2, 4})
	if c2.Capacity() != 5 {
		t.Errorf("alternating capacity = %d, want 5", c2.Capacity())
	}
}

func TestSizesAndImbalance(t *testing.T) {
	g := pathGraph(7)
	c := FromSet(g, []int{0, 1})
	if c.SizeS() != 2 || c.SizeSbar() != 5 || c.Imbalance() != 3 {
		t.Errorf("sizes: %d/%d imbalance %d", c.SizeS(), c.SizeSbar(), c.Imbalance())
	}
	if c.IsBisection() {
		t.Errorf("2/5 split of 7 nodes is not a bisection")
	}
	c3 := FromSet(g, []int{0, 1, 2})
	if !c3.IsBisection() {
		t.Errorf("3/4 split of 7 nodes is a bisection")
	}
	c4 := FromSet(g, []int{0, 1, 2, 3})
	if !c4.IsBisection() {
		t.Errorf("4/3 split of 7 nodes is a bisection")
	}
}

func TestMove(t *testing.T) {
	g := pathGraph(4)
	c := FromSet(g, []int{0})
	before := c.Capacity()
	c.Move(1)
	if c.SizeS() != 2 {
		t.Errorf("SizeS after move = %d", c.SizeS())
	}
	if c.Capacity() != before {
		t.Errorf("capacity after moving 1: %d, want %d (cut shifts along path)", c.Capacity(), before)
	}
	if !c.InS(1) {
		t.Errorf("node 1 should be in S")
	}
	c.Move(1)
	if c.InS(1) || c.SizeS() != 1 {
		t.Errorf("move is not an involution")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := pathGraph(4)
	c := FromSet(g, []int{0, 1})
	d := c.Clone()
	d.Move(2)
	if c.InS(2) {
		t.Errorf("clone mutation leaked")
	}
	if c.SizeS() == d.SizeS() {
		t.Errorf("sizes should differ after clone move")
	}
}

func TestCutEdgesMatchCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		side := make([]bool, n)
		for i := range side {
			side[i] = rng.Intn(2) == 0
		}
		c := New(g, side)
		edges := c.CutEdges()
		if len(edges) != c.Capacity() {
			return false
		}
		for _, ei := range edges {
			e := g.Edge(ei)
			if c.InS(int(e.U)) == c.InS(int(e.V)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCapacitySymmetry(t *testing.T) {
	// C(S, S̄) = C(S̄, S): complementing the side assignment preserves
	// capacity.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		b := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		side := make([]bool, n)
		comp := make([]bool, n)
		for i := range side {
			side[i] = rng.Intn(2) == 0
			comp[i] = !side[i]
		}
		return New(g, side).Capacity() == New(g, comp).Capacity()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBisectsSubset(t *testing.T) {
	g := pathGraph(8)
	u := []int{0, 2, 4, 6}
	if !FromSet(g, []int{0, 2}).BisectsSubset(u) {
		t.Errorf("2-of-4 should bisect")
	}
	if FromSet(g, []int{0, 2, 4}).BisectsSubset(u) {
		t.Errorf("3-of-4 should not bisect (difference 2)")
	}
	odd := []int{0, 2, 4}
	if !FromSet(g, []int{0, 2}).BisectsSubset(odd) {
		t.Errorf("2-of-3 should bisect (difference 1)")
	}
	if !FromSet(g, []int{0}).BisectsSubset(odd) {
		t.Errorf("1-of-3 should bisect (difference 1)")
	}
	if FromSet(g, nil).BisectsSubset(odd) {
		t.Errorf("0-of-3 should not bisect")
	}
}

func TestCountIn(t *testing.T) {
	g := pathGraph(5)
	c := FromSet(g, []int{1, 3})
	if c.CountIn([]int{0, 1, 2, 3}) != 2 {
		t.Errorf("CountIn wrong")
	}
}

func TestFromSetRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate set entry did not panic")
		}
	}()
	FromSet(pathGraph(3), []int{1, 1})
}

func TestNewRejectsWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("wrong-length side did not panic")
		}
	}()
	New(pathGraph(3), make([]bool, 2))
}

func TestEdgeBoundaryAndNodeBoundary(t *testing.T) {
	// On B8: the set of all level-0 nodes has edge boundary 2n (each input
	// has 2 edges down) and node boundary n (all of level 1).
	b := topology.NewButterfly(8)
	inputs := b.InputNodes()
	if got := EdgeBoundary(b.Graph, inputs); got != 16 {
		t.Errorf("edge boundary of inputs = %d, want 16", got)
	}
	nb := NodeBoundary(b.Graph, inputs)
	if len(nb) != 8 {
		t.Errorf("node boundary of inputs has %d nodes, want 8", len(nb))
	}
	for _, v := range nb {
		if b.Level(v) != 1 {
			t.Errorf("boundary node on level %d", b.Level(v))
		}
	}
}

func TestFolkloreColumnCutOnB8(t *testing.T) {
	// The classical upper bound BW(Bn) ≤ n: columns starting with 0 vs 1
	// (§1.4). Only level-0/1 edges cross... in fact only the cross edges of
	// the first level-pair do, 2·(n/2) = n of them.
	b := topology.NewButterfly(8)
	var s []int
	for v := 0; v < b.N(); v++ {
		if b.Column(v) < 4 {
			s = append(s, v)
		}
	}
	c := FromSet(b.Graph, s)
	if !c.IsBisection() {
		t.Fatalf("column cut should bisect")
	}
	if got := c.Capacity(); got != 8 {
		t.Errorf("column cut capacity = %d, want n = 8", got)
	}
}

func TestDegreeToSides(t *testing.T) {
	g := pathGraph(5)
	c := FromSet(g, []int{0, 1, 2})
	toS, toSbar := c.DegreeToSides(2)
	if toS != 1 || toSbar != 1 {
		t.Errorf("DegreeToSides(2) = %d,%d", toS, toSbar)
	}
	toS, toSbar = c.DegreeToSides(0)
	if toS != 1 || toSbar != 0 {
		t.Errorf("DegreeToSides(0) = %d,%d", toS, toSbar)
	}
}

// CutEdges returns the indices of the edges crossing the cut.
func (c *Cut) CutEdges() []int {
	var out []int
	for ei, e := range c.g.Edges() {
		if c.side[e.U] != c.side[e.V] {
			out = append(out, ei)
		}
	}
	return out
}
