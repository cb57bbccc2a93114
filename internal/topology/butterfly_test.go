package topology

import (
	"testing"

	"repro/internal/bitutil"
	"repro/internal/graph"
)

// TestFigure1Structure checks the 32-node butterfly B8 of Figure 1.
func TestFigure1Structure(t *testing.T) {
	b := NewButterfly(8)
	if b.N() != 32 {
		t.Errorf("B8 has %d nodes, want 32", b.N())
	}
	if b.M() != 48 { // 2n·log n = 2·8·3
		t.Errorf("B8 has %d edges, want 48", b.M())
	}
	if b.Levels() != 4 || b.Dim() != 3 {
		t.Errorf("levels/dim = %d/%d", b.Levels(), b.Dim())
	}
	// Inputs and outputs have degree 2; interior nodes degree 4.
	hist := b.DegreeHistogram()
	if hist[2] != 16 || hist[4] != 16 {
		t.Errorf("degree histogram = %v, want 16×2, 16×4", hist)
	}
	if !b.IsConnected() {
		t.Errorf("B8 should be connected")
	}
}

func TestButterflyCounts(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		b := NewButterfly(n)
		d := bitutil.Log2(n)
		if b.N() != n*(d+1) {
			t.Errorf("B%d: N = %d, want n(log n+1) = %d", n, b.N(), n*(d+1))
		}
		if b.M() != 2*n*d {
			t.Errorf("B%d: M = %d, want 2n·log n = %d", n, b.M(), 2*n*d)
		}
	}
}

func TestButterflyDiameter(t *testing.T) {
	// Diameter of Bn is 2·log n (§1.1).
	for _, n := range []int{2, 4, 8, 16, 32} {
		b := NewButterfly(n)
		if got, want := b.Diameter(), 2*b.Dim(); got != want {
			t.Errorf("diam(B%d) = %d, want %d", n, got, want)
		}
	}
}

func TestWrappedButterflyCounts(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32, 64} {
		w := NewWrappedButterfly(n)
		d := bitutil.Log2(n)
		if w.N() != n*d {
			t.Errorf("W%d: N = %d, want n·log n = %d", n, w.N(), n*d)
		}
		if w.M() != 2*n*d {
			t.Errorf("W%d: M = %d, want 2n·log n = %d", n, w.M(), 2*n*d)
		}
		// Wn is 4-regular (§1.4).
		if w.MinDegree() != 4 || w.MaxDegree() != 4 {
			t.Errorf("W%d degrees = [%d,%d], want 4-regular", n, w.MinDegree(), w.MaxDegree())
		}
	}
}

func TestWrappedButterflyDiameter(t *testing.T) {
	// Diameter of Wn is ⌊3·log n/2⌋ (§1.1).
	for _, n := range []int{4, 8, 16, 32} {
		w := NewWrappedButterfly(n)
		want := 3 * w.Dim() / 2
		if got := w.Diameter(); got != want {
			t.Errorf("diam(W%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNodeColumnLevelRoundTrip(t *testing.T) {
	b := NewButterfly(16)
	for i := 0; i <= b.Dim(); i++ {
		for w := 0; w < 16; w++ {
			v := b.Node(w, i)
			if b.Column(v) != w || b.Level(v) != i {
				t.Fatalf("round trip failed for (%d,%d)", w, i)
			}
		}
	}
	wb := NewWrappedButterfly(16)
	for i := 0; i < wb.Dim(); i++ {
		for w := 0; w < 16; w++ {
			v := wb.Node(w, i)
			if wb.Column(v) != w || wb.Level(v) != i {
				t.Fatalf("wrapped round trip failed for (%d,%d)", w, i)
			}
		}
	}
	// Wrap identification: level log n is level 0.
	if wb.Node(5, wb.Dim()) != wb.Node(5, 0) {
		t.Errorf("level log n should wrap to level 0")
	}
}

func TestButterflyEdgeSemantics(t *testing.T) {
	// Nodes <w,i> and <w',i'> adjacent iff i' = i+1 and w' = w or w' = w
	// with bit i+1 flipped (checked in both directions by symmetry of the
	// adjacency structure).
	b := NewButterfly(8)
	d := b.Dim()
	for v := 0; v < b.N(); v++ {
		w, i := b.Column(v), b.Level(v)
		want := make(map[int]bool)
		if i < d {
			want[b.Node(w, i+1)] = true
			want[b.Node(bitutil.FlipBit(w, d, i+1), i+1)] = true
		}
		if i > 0 {
			want[b.Node(w, i-1)] = true
			want[b.Node(bitutil.FlipBit(w, d, i), i-1)] = true
		}
		got := make(map[int]bool)
		for _, u := range b.Neighbors(v) {
			got[int(u)] = true
		}
		if len(got) != len(want) {
			t.Fatalf("node (%d,%d): %d neighbors, want %d", w, i, len(got), len(want))
		}
		for u := range want {
			if !got[u] {
				t.Fatalf("node (%d,%d): missing neighbor %d", w, i, u)
			}
		}
	}
}

// checkAutomorphism verifies that perm maps edges of g onto edges of g
// bijectively.
func checkAutomorphism(t *testing.T, g *graph.Graph, perm []int) {
	t.Helper()
	seen := make([]bool, g.N())
	for _, p := range perm {
		if seen[p] {
			t.Fatalf("permutation is not a bijection")
		}
		seen[p] = true
	}
	for _, e := range g.Edges() {
		if !g.HasEdge(perm[e.U], perm[e.V]) {
			t.Fatalf("edge {%d,%d} not preserved", e.U, e.V)
		}
	}
}

func TestLevelReversalAutomorphism(t *testing.T) {
	// Lemma 2.1: an automorphism of Bn mapping L_i onto L_{log n − i}.
	b := NewButterfly(16)
	perm := b.LevelReversalAutomorphism()
	checkAutomorphism(t, b.Graph, perm)
	for v := 0; v < b.N(); v++ {
		if b.Level(perm[v]) != b.Dim()-b.Level(v) {
			t.Fatalf("node on level %d mapped to level %d", b.Level(v), b.Level(perm[v]))
		}
	}
}

func TestColumnXorAutomorphism(t *testing.T) {
	// Lemma 2.2: level-preserving automorphisms carrying any node to any
	// other node on the same level.
	b := NewButterfly(8)
	for mask := 0; mask < 8; mask++ {
		perm := b.ColumnXorAutomorphism(mask)
		checkAutomorphism(t, b.Graph, perm)
		for v := 0; v < b.N(); v++ {
			if b.Level(perm[v]) != b.Level(v) {
				t.Fatalf("xor automorphism moved levels")
			}
			if b.Column(perm[v]) != b.Column(v)^mask {
				t.Fatalf("xor automorphism wrong column")
			}
		}
	}
	w := NewWrappedButterfly(8)
	checkAutomorphism(t, w.Graph, w.ColumnXorAutomorphism(5))
}

func TestLevelRotationAutomorphism(t *testing.T) {
	// The symmetry of Wn used in Lemma 3.2 to renumber levels.
	for _, n := range []int{4, 8, 16} {
		w := NewWrappedButterfly(n)
		perm := w.LevelRotationAutomorphism()
		checkAutomorphism(t, w.Graph, perm)
		for v := 0; v < w.N(); v++ {
			if w.Level(perm[v]) != (w.Level(v)+1)%w.Dim() {
				t.Fatalf("rotation automorphism wrong level")
			}
		}
	}
}

func TestMonotonePath(t *testing.T) {
	// Lemma 2.3: exactly one monotone path links any input to any output.
	b := NewButterfly(16)
	d := b.Dim()
	for w0 := 0; w0 < 16; w0++ {
		for w1 := 0; w1 < 16; w1++ {
			p := b.MonotonePath(w0, w1)
			if len(p) != d+1 {
				t.Fatalf("path length %d, want %d", len(p), d+1)
			}
			if p[0] != b.Node(w0, 0) || p[d] != b.Node(w1, d) {
				t.Fatalf("path endpoints wrong")
			}
			for i := 0; i < d; i++ {
				if b.Level(p[i]) != i {
					t.Fatalf("path not monotone at step %d", i)
				}
				if !b.HasEdge(p[i], p[i+1]) {
					t.Fatalf("path step %d is not an edge", i)
				}
			}
		}
	}
}

func TestMonotonePathUniqueness(t *testing.T) {
	// Count all monotone input→output paths by dynamic programming over
	// levels; every pair must have exactly one.
	b := NewButterfly(8)
	d := b.Dim()
	for w0 := 0; w0 < 8; w0++ {
		counts := make([]int, b.N())
		counts[b.Node(w0, 0)] = 1
		for i := 0; i < d; i++ {
			for w := 0; w < 8; w++ {
				v := b.Node(w, i)
				if counts[v] == 0 {
					continue
				}
				counts[b.Node(w, i+1)] += counts[v]
				counts[b.Node(bitutil.FlipBit(w, d, i+1), i+1)] += counts[v]
			}
		}
		for w1 := 0; w1 < 8; w1++ {
			if got := counts[b.Node(w1, d)]; got != 1 {
				t.Fatalf("%d monotone paths from %d to %d, want 1", got, w0, w1)
			}
		}
	}
}

func TestRotatedMonotonePath(t *testing.T) {
	w := NewWrappedButterfly(16)
	d := w.Dim()
	for start := 0; start < d; start++ {
		for w0 := 0; w0 < 16; w0 += 3 {
			for w1 := 0; w1 < 16; w1 += 5 {
				p := w.RotatedMonotonePath(w0, w1, start)
				if len(p) != d+1 {
					t.Fatalf("path length %d", len(p))
				}
				if p[0] != w.Node(w0, start) || p[d] != w.Node(w1, start) {
					t.Fatalf("endpoints wrong: start %d cols %d,%d", start, w0, w1)
				}
				for s := 0; s < d; s++ {
					if !w.HasEdge(p[s], p[s+1]) {
						t.Fatalf("step %d not an edge", s)
					}
				}
			}
		}
	}
}

func TestInputOutputNodes(t *testing.T) {
	b := NewButterfly(8)
	in, out := b.InputNodes(), b.OutputNodes()
	if len(in) != 8 || len(out) != 8 {
		t.Fatalf("inputs/outputs sized %d/%d", len(in), len(out))
	}
	for _, v := range in {
		if b.Level(v) != 0 {
			t.Errorf("input on level %d", b.Level(v))
		}
	}
	for _, v := range out {
		if b.Level(v) != b.Dim() {
			t.Errorf("output on level %d", b.Level(v))
		}
	}
	w := NewWrappedButterfly(8)
	if len(w.OutputNodes()) != 8 || w.OutputNodes()[3] != w.Node(3, 0) {
		t.Errorf("wrapped outputs should coincide with inputs")
	}
	col := b.ColumnNodes(5)
	if len(col) != b.Levels() {
		t.Errorf("column has %d nodes", len(col))
	}
	for i, v := range col {
		if b.Column(v) != 5 || b.Level(v) != i {
			t.Errorf("column node %d wrong", i)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("B3", func() { NewButterfly(3) })
	mustPanic("B0", func() { NewButterfly(0) })
	mustPanic("B1", func() { NewButterfly(1) })
	mustPanic("W2", func() { NewWrappedButterfly(2) })
	mustPanic("W6", func() { NewWrappedButterfly(6) })
	mustPanic("bad node", func() { NewButterfly(4).Node(4, 0) })
	mustPanic("bad level", func() { NewButterfly(4).Node(0, 3) })
	mustPanic("Bn rotation", func() { NewButterfly(4).LevelRotationAutomorphism() })
	mustPanic("Wn reversal", func() { NewWrappedButterfly(4).LevelReversalAutomorphism() })
	mustPanic("Wn monotone", func() { NewWrappedButterfly(4).MonotonePath(0, 1) })
	mustPanic("Bn rotated", func() { NewButterfly(4).RotatedMonotonePath(0, 1, 0) })
}

// ColumnNodes returns the nodes of column w, level by level.
func (b *Butterfly) ColumnNodes(w int) []int {
	nodes := make([]int, b.Levels())
	for i := range nodes {
		nodes[i] = b.Node(w, i)
	}
	return nodes
}
