package topology

import (
	"testing"

	"repro/internal/bitutil"
)

func TestCCCCounts(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		c := NewCCC(n)
		d := bitutil.Log2(n)
		if c.N() != n*d {
			t.Errorf("CCC%d: N = %d, want %d", n, c.N(), n*d)
		}
		if c.M() != 3*n*d/2 {
			t.Errorf("CCC%d: M = %d, want %d", n, c.M(), 3*n*d/2)
		}
		if c.MinDegree() != 3 || c.MaxDegree() != 3 {
			t.Errorf("CCC%d should be 3-regular", n)
		}
		if !c.IsConnected() {
			t.Errorf("CCC%d should be connected", n)
		}
	}
}

func TestCCCEdgeSemantics(t *testing.T) {
	c := NewCCC(8)
	d := c.Dim()
	for v := 0; v < c.N(); v++ {
		w, i := c.CycleLabel(v), c.Position(v)
		// Cycle neighbors at positions i±1 (wrapping 1..log n), cube
		// neighbor across bit i.
		next := i%d + 1
		prev := (i-2+d)%d + 1
		for _, u := range []int{c.Node(w, next), c.Node(w, prev), c.Node(bitutil.FlipBit(w, d, i), i)} {
			if !c.HasEdge(v, u) {
				t.Fatalf("node (%d,%d) missing neighbor (%d,%d)", w, i, c.CycleLabel(u), c.Position(u))
			}
		}
	}
}

func TestCCCValidation(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCCC(%d) did not panic", n)
				}
			}()
			NewCCC(n)
		}()
	}
}

func TestBenesStructure(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		be := NewBenes(n)
		d := bitutil.Log2(n)
		if be.N() != n*(2*d+1) {
			t.Errorf("Benes%d: N = %d, want %d", n, be.N(), n*(2*d+1))
		}
		if be.M() != 4*n*d {
			t.Errorf("Benes%d: M = %d, want %d", n, be.M(), 4*n*d)
		}
		if !be.IsConnected() {
			t.Errorf("Benes%d should be connected", n)
		}
		hist := be.DegreeHistogram()
		if d > 0 && (hist[2] != 2*n || hist[4] != (2*d-1)*n) {
			t.Errorf("Benes%d degree histogram = %v", n, hist)
		}
	}
}

func TestBenesMirrorSymmetry(t *testing.T) {
	// The flip positions must be palindromic: 1,2,...,log n,log n,...,2,1.
	be := NewBenes(16)
	d := be.Dim()
	for l := 0; l < 2*d; l++ {
		if be.FlipPosition(l) != be.FlipPosition(2*d-1-l) {
			t.Errorf("flip positions not mirrored at %d", l)
		}
	}
	if be.FlipPosition(0) != 1 || be.FlipPosition(d-1) != d || be.FlipPosition(d) != d {
		t.Errorf("flip position sequence wrong")
	}
}

func TestMeshOfStars(t *testing.T) {
	for _, jk := range [][2]int{{1, 1}, {2, 3}, {4, 4}, {5, 2}} {
		j, k := jk[0], jk[1]
		m := NewMeshOfStars(j, k)
		if m.N() != j+j*k+k {
			t.Errorf("MOS%d,%d: N = %d", j, k, m.N())
		}
		if m.M() != 2*j*k {
			t.Errorf("MOS%d,%d: M = %d", j, k, m.M())
		}
		for a := 0; a < j; a++ {
			if m.Degree(m.M1Node(a)) != k {
				t.Errorf("M1 degree = %d, want %d", m.Degree(m.M1Node(a)), k)
			}
		}
		for b := 0; b < k; b++ {
			if m.Degree(m.M3Node(b)) != j {
				t.Errorf("M3 degree = %d, want %d", m.Degree(m.M3Node(b)), j)
			}
		}
		for a := 0; a < j; a++ {
			for b := 0; b < k; b++ {
				mid := m.M2Node(a, b)
				if m.Degree(mid) != 2 {
					t.Errorf("M2 degree = %d", m.Degree(mid))
				}
				if !m.HasEdge(mid, m.M1Node(a)) || !m.HasEdge(mid, m.M3Node(b)) {
					t.Errorf("M2(%d,%d) misconnected", a, b)
				}
				aa, bb := m.M2Endpoints(mid)
				if aa != a || bb != b {
					t.Errorf("M2Endpoints round trip failed")
				}
			}
		}
		if got := len(m.M2Nodes()); got != j*k {
			t.Errorf("M2Nodes has %d entries", got)
		}
		for _, v := range m.M2Nodes() {
			if m.LevelOf(v) != 2 {
				t.Errorf("M2 node classified as level %d", m.LevelOf(v))
			}
		}
		if m.LevelOf(m.M1Node(0)) != 1 || m.LevelOf(m.M3Node(0)) != 3 {
			t.Errorf("level classification wrong")
		}
	}
}

func TestMeshOfStarsDiameter(t *testing.T) {
	// For j,k ≥ 2 the diameter is 4 (M2 to M2 via M1/M3 hubs).
	m := NewMeshOfStars(3, 4)
	if got := m.Diameter(); got != 4 {
		t.Errorf("diameter = %d, want 4", got)
	}
}

func TestHypercube(t *testing.T) {
	for d := 1; d <= 6; d++ {
		h := NewHypercube(d)
		if h.N() != 1<<d {
			t.Errorf("Q%d: N = %d", d, h.N())
		}
		if h.M() != d<<(d-1) {
			t.Errorf("Q%d: M = %d, want %d", d, h.M(), d<<(d-1))
		}
		if h.MinDegree() != d || h.MaxDegree() != d {
			t.Errorf("Q%d should be %d-regular", d, d)
		}
		if h.Diameter() != d {
			t.Errorf("Q%d diameter = %d", d, h.Diameter())
		}
	}
}

func TestCompleteGraphs(t *testing.T) {
	k5 := NewComplete(5)
	if k5.N() != 5 || k5.M() != 10 {
		t.Errorf("K5: N=%d M=%d", k5.N(), k5.M())
	}
	dk4 := NewDoubledComplete(4)
	if dk4.M() != 12 {
		t.Errorf("2K4: M=%d, want 12", dk4.M())
	}
	if dk4.EdgeMultiplicity(0, 3) != 2 {
		t.Errorf("2K4 edges not doubled")
	}
	kb := NewCompleteBipartite(3, 4)
	if kb.N() != 7 || kb.M() != 12 {
		t.Errorf("K3,4: N=%d M=%d", kb.N(), kb.M())
	}
	if kb.HasEdge(0, 1) || !kb.HasEdge(0, 3) {
		t.Errorf("K3,4 sides wrong")
	}
}

// Dim returns log n, the cycle length.
func (c *CCC) Dim() int { return c.dim }

// Position returns the in-cycle position i ∈ 1..log n of node id v.
func (c *CCC) Position(v int) int { return v/c.n + 1 }

// LevelOf returns 1, 2, or 3 according to which level node id v belongs to.
func (m *MeshOfStars) LevelOf(v int) int {
	switch {
	case v < m.j:
		return 1
	case v < m.j+m.j*m.k:
		return 2
	default:
		return 3
	}
}

// M2Endpoints returns (a,b) for a middle node id v, i.e. the M1 and M3
// indices it connects.
func (m *MeshOfStars) M2Endpoints(v int) (a, b int) {
	if m.LevelOf(v) != 2 {
		panic("topology: node is not an M2 node")
	}
	v -= m.j
	return v / m.k, v % m.k
}
