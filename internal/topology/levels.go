package topology

import (
	"fmt"

	"repro/internal/bitutil"
)

// LevelRangeComponent is one connected component of Bn[lo,hi], the subgraph
// of Bn induced by levels lo..hi (Lemma 2.4). A component is determined by
// the column bits outside positions lo+1..hi: the lo-bit prefix (positions
// 1..lo) and the (log n − hi)-bit suffix (positions hi+1..log n). The
// component is isomorphic to B_{2^(hi−lo)} and its level-k nodes sit on
// level lo+k of Bn.
type LevelRangeComponent struct {
	b      *Butterfly
	Lo, Hi int
	Prefix int // value of bit positions 1..lo
	Suffix int // value of bit positions hi+1..log n
}

// LevelRangeComponents enumerates the connected components of Bn[lo,hi].
// Per Lemma 2.4 there are n/2^(hi−lo) of them.
func (b *Butterfly) LevelRangeComponents(lo, hi int) []LevelRangeComponent {
	if b.wrap {
		panic("topology: LevelRangeComponents is defined on Bn")
	}
	if lo < 0 || hi > b.dim || lo > hi {
		panic(fmt.Sprintf("topology: bad level range [%d,%d]", lo, hi))
	}
	prefixes := 1 << lo
	suffixes := 1 << (b.dim - hi)
	comps := make([]LevelRangeComponent, 0, prefixes*suffixes)
	for p := 0; p < prefixes; p++ {
		for s := 0; s < suffixes; s++ {
			comps = append(comps, LevelRangeComponent{b: b, Lo: lo, Hi: hi, Prefix: p, Suffix: s})
		}
	}
	return comps
}

// NumColumns returns 2^(hi−lo), the number of Bn columns in the component.
func (c LevelRangeComponent) NumColumns() int { return 1 << (c.Hi - c.Lo) }

// Size returns the number of nodes, 2^(hi−lo)·(hi−lo+1).
func (c LevelRangeComponent) Size() int { return c.NumColumns() * (c.Hi - c.Lo + 1) }

// Column returns the Bn column label of the component's local column m,
// 0 ≤ m < 2^(hi−lo): the prefix and suffix bits come from the component id
// and the free bits (positions lo+1..hi) take the value m.
func (c LevelRangeComponent) Column(m int) int {
	free := c.Hi - c.Lo
	return bitutil.Compose(c.Prefix, c.Lo, m, free, c.Suffix, c.b.dim-c.Hi)
}

// Node returns the Bn node id of the component node at local column m and
// local level k (which sits on level lo+k of Bn).
func (c LevelRangeComponent) Node(m, k int) int {
	if k < 0 || k > c.Hi-c.Lo {
		panic("topology: component level out of range")
	}
	return c.b.Node(c.Column(m), c.Lo+k)
}

// Nodes returns all node ids of the component, level-major.
func (c LevelRangeComponent) Nodes() []int {
	cols := c.NumColumns()
	nodes := make([]int, 0, c.Size())
	for k := 0; k <= c.Hi-c.Lo; k++ {
		for m := 0; m < cols; m++ {
			nodes = append(nodes, c.Node(m, k))
		}
	}
	return nodes
}

// WrappedSubButterflyNodes returns the nodes of the d-dimensional
// sub-butterfly of Wn whose levels are start..start+d (mod log n) and whose
// columns fix every bit position outside (start+1..start+d, wrapped) to the
// bits of fix (listed most significant first among the fixed positions in
// increasing position order). Requires 1 ≤ d < log n. The result has
// 2^d·(d+1) nodes; its level-0 nodes are the sub-butterfly's inputs and its
// level-d nodes its outputs (§4.1 definitions).
func (b *Butterfly) WrappedSubButterflyNodes(start, d, fix int) []int {
	if !b.wrap {
		panic("topology: WrappedSubButterflyNodes is defined on Wn")
	}
	if d < 1 || d >= b.dim {
		panic("topology: sub-butterfly dimension out of range")
	}
	if start < 0 || start >= b.dim {
		panic("topology: sub-butterfly start level out of range")
	}
	nFixed := b.dim - d
	if fix < 0 || fix >= 1<<nFixed {
		panic("topology: fixed-bit value out of range")
	}
	// Free bit positions are (start+s) mod dim + 1 for s = 0..d−1; every
	// other position is fixed, taking its bit from fix in increasing
	// position order.
	free := make([]bool, b.dim+1) // indexed by paper position 1..dim
	for s := 0; s < d; s++ {
		free[(start+s)%b.dim+1] = true
	}
	fixedPos := make([]int, 0, nFixed)
	for p := 1; p <= b.dim; p++ {
		if !free[p] {
			fixedPos = append(fixedPos, p)
		}
	}
	base := 0
	for idx, p := range fixedPos {
		bit := (fix >> (nFixed - 1 - idx)) & 1
		if bit == 1 {
			base = bitutil.FlipBit(base, b.dim, p)
		}
	}
	freePos := make([]int, 0, d)
	for s := 0; s < d; s++ {
		freePos = append(freePos, (start+s)%b.dim+1)
	}
	nodes := make([]int, 0, (d+1)<<d)
	for k := 0; k <= d; k++ {
		lvl := (start + k) % b.dim
		for m := 0; m < 1<<d; m++ {
			w := base
			for s := 0; s < d; s++ {
				if (m>>(d-1-s))&1 == 1 {
					w = bitutil.FlipBit(w, b.dim, freePos[s])
				}
			}
			nodes = append(nodes, b.Node(w, lvl))
		}
	}
	return nodes
}

// DownChildren returns the two children of node v in the down-tree T_v' of
// whatever node roots the tree (§4 definitions): the level-(i+1) neighbors
// of ⟨w,i⟩. For Bn, ok is false when v is on the last level. For Wn the
// level wraps and ok is always true.
func (b *Butterfly) DownChildren(v int) (straight, cross int, ok bool) {
	w, i := b.Column(v), b.Level(v)
	if !b.wrap && i == b.dim {
		return 0, 0, false
	}
	next := i + 1
	if b.wrap {
		next = (i + 1) % b.dim
	}
	return b.Node(w, next), b.Node(bitutil.FlipBit(w, b.dim, i+1), next), true
}

// UpChildren returns the two level-(i−1) neighbors of ⟨w,i⟩ (the children of
// v in an up-tree). For Bn, ok is false when v is on level 0. For Wn the
// level wraps and ok is always true.
func (b *Butterfly) UpChildren(v int) (straight, cross int, ok bool) {
	w, i := b.Column(v), b.Level(v)
	if !b.wrap && i == 0 {
		return 0, 0, false
	}
	prev := i - 1
	if b.wrap {
		prev = (i - 1 + b.dim) % b.dim
	}
	// The edge between levels prev and prev+1 flips bit position prev+1.
	return b.Node(w, prev), b.Node(bitutil.FlipBit(w, b.dim, prev+1), prev), true
}
