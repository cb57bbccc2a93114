package expansion

import (
	"repro/internal/bitutil"
	"repro/internal/topology"
)

// CreditResult reports one run of a credit-distribution scheme on a set A.
// All credit amounts are exact dyadic rationals, held as integers scaled by
// 2^(log n + 2), so the conservation and cap checks are exact.
type CreditResult struct {
	K int // |A|
	// CutRetained is the total credit (in units) retained by cut edges
	// (edge schemes) or by nodes of N(A) (node schemes).
	CutRetained float64
	// LeakedToLeaves is the credit that reached leaf edges/nodes inside A
	// and was lost to the bound; the lemmas show it is at most k²/n-ish.
	LeakedToLeaves float64
	// MaxPerItem is the largest credit retained by a single cut edge or
	// N(A) node; the lemmas cap it by PerItemCap.
	MaxPerItem float64
	// PerItemCap is the analytical cap from the corresponding lemma.
	PerItemCap float64
	// LowerBound is the certified floor ⌈CutRetained / PerItemCap⌉ on
	// C(A,Ā) (edge schemes) or |N(A)| (node schemes).
	LowerBound int
	// Items is the number of distinct cut edges / N(A) nodes that retained
	// any credit (it can be below the true boundary size).
	Items int
}

// scaled credit arithmetic: one unit = 1 << shift.
type creditState struct {
	b     *topology.Butterfly
	inA   []bool
	shift uint
	// edges selects the retaining item: the cut edge (edge schemes) or
	// the node of N(A) (node schemes).
	edges bool
	// retained credit per item; edge schemes key by canonical edge pair,
	// node schemes by node id.
	retained map[[2]int32]int64
	leaked   int64
}

func newCreditState(b *topology.Butterfly, a []int, edges bool) *creditState {
	inA := make([]bool, b.N())
	for _, v := range a {
		inA[v] = true
	}
	return &creditState{
		b:        b,
		inA:      inA,
		shift:    uint(b.Dim() + 2),
		edges:    edges,
		retained: make(map[[2]int32]int64),
	}
}

// flow runs the retention scheme from source u ∈ A: credit halves at every
// tree level and passes on only to children in A, so every frontier node
// lies in A. A child outside A retains its half (see item); a leaf inside
// A leaks it. dir > 0 uses down-trees, dir < 0 up-trees.
func (st *creditState) flow(u int, amount int64, dir, depth int) {
	type entry struct {
		v int
		c int64
	}
	frontier := []entry{{u, amount}}
	for step := 1; step <= depth; step++ {
		next := frontier[:0:0]
		for _, e := range frontier {
			var s, c int
			var ok bool
			if dir > 0 {
				s, c, ok = st.b.DownChildren(e.v)
			} else {
				s, c, ok = st.b.UpChildren(e.v)
			}
			if !ok {
				panic("expansion: credit tree ran off the network")
			}
			half := e.c / 2
			for _, child := range []int{s, c} {
				switch {
				case !st.inA[child]:
					st.retained[st.item(e.v, child)] += half
				case step == depth: // leaf inside A
					st.leaked += half
				default:
					next = append(next, entry{child, half})
				}
			}
		}
		frontier = next
	}
}

// item keys the credit that child, a node outside A, retains when it comes
// from v ∈ A: the cut edge {v, child} in an edge scheme, child itself (a
// node of N(A)) in a node scheme.
func (st *creditState) item(v, child int) [2]int32 {
	if !st.edges {
		return [2]int32{int32(child), -1}
	}
	if v > child {
		v, child = child, v
	}
	return [2]int32{int32(v), int32(child)}
}

func (st *creditState) result(k int, capNum, capDen int64) CreditResult {
	unit := float64(int64(1) << st.shift)
	var total, max int64
	for _, c := range st.retained {
		total += c
		if c > max {
			max = c
		}
	}
	// LowerBound = ceil(total / (capNum/capDen · unit)), all integral.
	var lb int64
	num := total * capDen
	den := capNum * (int64(1) << st.shift)
	if den > 0 {
		lb = (num + den - 1) / den
	}
	return CreditResult{
		K:              k,
		CutRetained:    float64(total) / unit,
		LeakedToLeaves: float64(st.leaked) / unit,
		MaxPerItem:     float64(max) / unit,
		PerItemCap:     float64(capNum) / float64(capDen),
		LowerBound:     int(lb),
		Items:          len(st.retained),
	}
}

// WnEdgeCreditBound runs the Lemma 4.2 scheme on Wn: every node of A sends
// half a unit down its down-tree and half up its up-tree; cut edges retain
// at most (⌊log k⌋+1)/4 units each, so C(A,Ā) ≥ CutRetained·4/(⌊log k⌋+1) —
// the certified (4−o(1))k/log k lower bound for k = o(n).
func WnEdgeCreditBound(w *topology.Butterfly, a []int) CreditResult {
	if !w.Wraparound() {
		panic("expansion: WnEdgeCreditBound needs Wn")
	}
	st := newCreditState(w, a, true)
	half := int64(1) << (st.shift - 1)
	for _, u := range a {
		st.flow(u, half, +1, w.Dim())
		st.flow(u, half, -1, w.Dim())
	}
	k := len(a)
	capNum := int64(bitutil.FloorLog2(maxInt(k, 1)) + 1)
	return st.result(k, capNum, 4)
}

// WnNodeCreditBound runs the Lemma 4.5 scheme on Wn: nodes of N(A) retain at
// most ⌊log k⌋ units each, certifying |N(A)| ≥ CutRetained/⌊log k⌋, the
// (1−o(1))k/log k bound. Requires k ≥ 2 (the cap degenerates at k = 1).
func WnNodeCreditBound(w *topology.Butterfly, a []int) CreditResult {
	if !w.Wraparound() {
		panic("expansion: WnNodeCreditBound needs Wn")
	}
	if len(a) < 2 {
		panic("expansion: node credit bound needs |A| ≥ 2")
	}
	st := newCreditState(w, a, false)
	half := int64(1) << (st.shift - 1)
	for _, u := range a {
		st.flow(u, half, +1, w.Dim())
		st.flow(u, half, -1, w.Dim())
	}
	k := len(a)
	capNum := int64(bitutil.FloorLog2(k))
	return st.result(k, capNum, 1)
}

// BnEdgeCreditBound runs the Lemma 4.8 scheme on Bn: a node of A on level
// i < ⌊(log n+1)/2⌋ sends one unit down its down-tree (to level log n);
// other nodes send one unit up (to level 0). Cut edges retain at most
// (⌊log k⌋+1)/2 units, certifying the (2−o(1))k/log k bound for k = o(√n).
func BnEdgeCreditBound(b *topology.Butterfly, a []int) CreditResult {
	if b.Wraparound() {
		panic("expansion: BnEdgeCreditBound needs Bn")
	}
	st := newCreditState(b, a, true)
	unit := int64(1) << st.shift
	mid := (b.Dim() + 1) / 2
	for _, u := range a {
		if lvl := b.Level(u); lvl < mid {
			st.flow(u, unit, +1, b.Dim()-lvl)
		} else {
			st.flow(u, unit, -1, lvl)
		}
	}
	k := len(a)
	capNum := int64(bitutil.FloorLog2(maxInt(k, 1)) + 1)
	return st.result(k, capNum, 2)
}

// BnNodeCreditBound runs the Lemma 4.11 scheme on Bn: nodes of N(A) retain
// at most 2⌊log k⌋ units, certifying the (1/2−o(1))k/log k bound for
// k = o(√n). Requires k ≥ 2.
func BnNodeCreditBound(b *topology.Butterfly, a []int) CreditResult {
	if b.Wraparound() {
		panic("expansion: BnNodeCreditBound needs Bn")
	}
	if len(a) < 2 {
		panic("expansion: node credit bound needs |A| ≥ 2")
	}
	st := newCreditState(b, a, false)
	unit := int64(1) << st.shift
	mid := (b.Dim() + 1) / 2
	for _, u := range a {
		if lvl := b.Level(u); lvl < mid {
			st.flow(u, unit, +1, b.Dim()-lvl)
		} else {
			st.flow(u, unit, -1, lvl)
		}
	}
	k := len(a)
	capNum := int64(2 * bitutil.FloorLog2(k))
	return st.result(k, capNum, 1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
