package topology

import (
	"testing"

	"repro/internal/bitutil"
)

func TestLemma24ComponentCount(t *testing.T) {
	// Lemma 2.4: Bn[i,j] has n/2^(j−i) connected components.
	b := NewButterfly(16)
	for lo := 0; lo <= b.Dim(); lo++ {
		for hi := lo; hi <= b.Dim(); hi++ {
			comps := b.LevelRangeComponents(lo, hi)
			want := 16 >> (hi - lo)
			if len(comps) != want {
				t.Errorf("Bn[%d,%d]: %d components, want %d", lo, hi, len(comps), want)
			}
			// The components must partition the level range.
			seen := make(map[int]bool)
			for _, c := range comps {
				for _, v := range c.Nodes() {
					if seen[v] {
						t.Fatalf("node %d in two components", v)
					}
					seen[v] = true
					if lvl := b.Level(v); lvl < lo || lvl > hi {
						t.Fatalf("node %d outside level range", v)
					}
				}
			}
			if len(seen) != 16*(hi-lo+1) {
				t.Errorf("components cover %d nodes, want %d", len(seen), 16*(hi-lo+1))
			}
		}
	}
}

func TestLemma24ComponentsAreConnectedAndIsomorphic(t *testing.T) {
	// Lemma 2.4: each component of Bn[i,j] is isomorphic to B_{2^(j−i)},
	// and its kth level lies inside level i+k of Bn.
	b := NewButterfly(16)
	cases := [][2]int{{0, 2}, {1, 3}, {2, 4}, {1, 2}, {0, 4}}
	for _, c := range cases {
		lo, hi := c[0], c[1]
		ref := NewButterfly(1 << (hi - lo))
		for _, comp := range b.LevelRangeComponents(lo, hi) {
			sg := b.InducedSubgraph(comp.Nodes())
			if !sg.IsConnected() {
				t.Fatalf("component of Bn[%d,%d] not connected", lo, hi)
			}
			if !Isomorphic(sg.Graph, ref.Graph) {
				t.Fatalf("component of Bn[%d,%d] not isomorphic to B_%d", lo, hi, 1<<(hi-lo))
			}
			for k := 0; k <= comp.Dim(); k++ {
				for m := 0; m < comp.NumColumns(); m++ {
					if b.Level(comp.Node(m, k)) != lo+k {
						t.Fatalf("component level %d not on Bn level %d", k, lo+k)
					}
				}
			}
		}
	}
}

func TestLevelRangeComponentOf(t *testing.T) {
	b := NewButterfly(16)
	for _, rng := range [][2]int{{1, 3}, {0, 2}, {2, 4}} {
		lo, hi := rng[0], rng[1]
		for w := 0; w < 16; w++ {
			comp := b.LevelRangeComponentOf(lo, hi, w)
			v := b.Node(w, lo)
			if !comp.Contains(v) {
				t.Fatalf("component of column %d does not contain its node", w)
			}
			// Membership must agree with actual graph connectivity inside
			// the level range.
			all := make([]int, 0, 16*(hi-lo+1))
			for i := lo; i <= hi; i++ {
				all = append(all, b.LevelNodes(i)...)
			}
			sg := b.InducedSubgraph(all)
			dist := sg.BFS(int(sg.FromParent[v]))
			for _, u := range all {
				reachable := dist[sg.FromParent[u]] >= 0
				if reachable != comp.Contains(u) {
					t.Fatalf("connectivity disagrees with component id for node %d", u)
				}
			}
		}
	}
}

func TestComponentSizeAndColumns(t *testing.T) {
	b := NewButterfly(32)
	comp := b.LevelRangeComponentOf(1, 3, 0b01010)
	if comp.Dim() != 2 || comp.NumColumns() != 4 || comp.Size() != 12 {
		t.Errorf("dim/cols/size = %d/%d/%d", comp.Dim(), comp.NumColumns(), comp.Size())
	}
	// All columns share prefix bits 1..1 and suffix bits 4..5 with 0b01010.
	for m := 0; m < comp.NumColumns(); m++ {
		w := comp.Column(m)
		if bitutil.Prefix(w, 5, 1) != bitutil.Prefix(0b01010, 5, 1) {
			t.Errorf("column %05b has wrong prefix", w)
		}
		if bitutil.Suffix(w, 5, 2) != bitutil.Suffix(0b01010, 5, 2) {
			t.Errorf("column %05b has wrong suffix", w)
		}
	}
}

func TestWrappedSubButterfly(t *testing.T) {
	w := NewWrappedButterfly(16)
	for start := 0; start < w.Dim(); start++ {
		for d := 1; d <= 2; d++ {
			for fix := 0; fix < 1<<(w.Dim()-d); fix++ {
				nodes := w.WrappedSubButterflyNodes(start, d, fix)
				if len(nodes) != (d+1)<<d {
					t.Fatalf("sub-butterfly size %d, want %d", len(nodes), (d+1)<<d)
				}
				sg := w.InducedSubgraph(nodes)
				ref := NewButterfly(1 << d)
				if !Isomorphic(sg.Graph, ref.Graph) {
					t.Fatalf("sub-butterfly (start=%d,d=%d,fix=%d) not a copy of B_%d",
						start, d, fix, 1<<d)
				}
			}
		}
	}
}

func TestWrappedSubButterfliesDisjoint(t *testing.T) {
	// Different fix values give node-disjoint sub-butterflies.
	w := NewWrappedButterfly(16)
	seen := make(map[int]int)
	for fix := 0; fix < 1<<(w.Dim()-2); fix++ {
		for _, v := range w.WrappedSubButterflyNodes(1, 2, fix) {
			if prev, ok := seen[v]; ok {
				t.Fatalf("node %d in sub-butterflies %d and %d", v, prev, fix)
			}
			seen[v] = fix
		}
	}
}

func TestDownUpChildren(t *testing.T) {
	b := NewButterfly(8)
	for v := 0; v < b.N(); v++ {
		s, c, ok := b.DownChildren(v)
		if b.Level(v) == b.Dim() {
			if ok {
				t.Fatalf("bottom level should have no down children")
			}
		} else {
			if !ok || !b.HasEdge(v, s) || !b.HasEdge(v, c) || s == c {
				t.Fatalf("bad down children of %d", v)
			}
			if b.Level(s) != b.Level(v)+1 || b.Level(c) != b.Level(v)+1 {
				t.Fatalf("down children on wrong level")
			}
		}
		s, c, ok = b.UpChildren(v)
		if b.Level(v) == 0 {
			if ok {
				t.Fatalf("top level should have no up children")
			}
		} else {
			if !ok || !b.HasEdge(v, s) || !b.HasEdge(v, c) || s == c {
				t.Fatalf("bad up children of %d", v)
			}
		}
	}

	w := NewWrappedButterfly(8)
	for v := 0; v < w.N(); v++ {
		s, c, ok := w.DownChildren(v)
		if !ok || !w.HasEdge(v, s) || !w.HasEdge(v, c) {
			t.Fatalf("bad wrapped down children of %d", v)
		}
		if w.Level(s) != (w.Level(v)+1)%w.Dim() {
			t.Fatalf("wrapped down child level wrong")
		}
		s, c, ok = w.UpChildren(v)
		if !ok || !w.HasEdge(v, s) || !w.HasEdge(v, c) {
			t.Fatalf("bad wrapped up children of %d", v)
		}
		if w.Level(s) != (w.Level(v)-1+w.Dim())%w.Dim() {
			t.Fatalf("wrapped up child level wrong")
		}
	}
}

func TestDownTreeIsCompleteBinaryTree(t *testing.T) {
	// §4.1 definitions: the down-tree T_u of Wn rooted at u is an n-leaf
	// complete binary tree whose jth level sits on Wn level (i+j) mod log n.
	w := NewWrappedButterfly(16)
	root := w.Node(9, 1)
	frontier := []int{root}
	for j := 1; j <= w.Dim(); j++ {
		var next []int
		seen := make(map[int]bool)
		for _, v := range frontier {
			s, c, _ := w.DownChildren(v)
			for _, u := range []int{s, c} {
				if seen[u] {
					t.Fatalf("down-tree level %d has duplicate node", j)
				}
				seen[u] = true
				next = append(next, u)
			}
		}
		if len(next) != 1<<j {
			t.Fatalf("down-tree level %d has %d nodes, want %d", j, len(next), 1<<j)
		}
		for _, u := range next {
			if w.Level(u) != (1+j)%w.Dim() {
				t.Fatalf("down-tree level %d node on Wn level %d", j, w.Level(u))
			}
		}
		frontier = next
	}
	// Leaves are back on the root's level, one per column.
	cols := make(map[int]bool)
	for _, v := range frontier {
		cols[w.Column(v)] = true
	}
	if len(cols) != 16 {
		t.Fatalf("down-tree leaves cover %d columns, want 16", len(cols))
	}
}

// LevelRangeComponentOf returns the component of Bn[lo,hi] containing column
// w (any level in the range).
func (b *Butterfly) LevelRangeComponentOf(lo, hi, w int) LevelRangeComponent {
	if b.wrap {
		panic("topology: LevelRangeComponentOf is defined on Bn")
	}
	return LevelRangeComponent{
		b:      b,
		Lo:     lo,
		Hi:     hi,
		Prefix: bitutil.Prefix(w, b.dim, lo),
		Suffix: bitutil.Suffix(w, b.dim, b.dim-hi),
	}
}

// Dim returns the dimension hi−lo of the component (it is a copy of
// B_{2^(hi−lo)}).
func (c LevelRangeComponent) Dim() int { return c.Hi - c.Lo }

// Contains reports whether Bn node v belongs to the component.
func (c LevelRangeComponent) Contains(v int) bool {
	lvl := c.b.Level(v)
	if lvl < c.Lo || lvl > c.Hi {
		return false
	}
	w := c.b.Column(v)
	return bitutil.Prefix(w, c.b.dim, c.Lo) == c.Prefix &&
		bitutil.Suffix(w, c.b.dim, c.b.dim-c.Hi) == c.Suffix
}
