// Package bandwidth implements the Kruskal–Snir flavored bisection of §1.2:
// every butterfly edge is directed from level i to level i+1, and the
// directed bisection width is the minimum, over all cuts (S,S̄) with at
// least n/2 inputs in S and at least n/2 outputs in S̄, of the number of
// directed edges from S to S̄.
//
// The paper recounts that the exact bandwidth of the n-input butterfly is
// 2n, that bandwidth is at most four times this directed bisection width
// (hence the width is at least n/2), and that the column-prefix cut
// achieves n/2 — "similar in spirit to our Lemma 3.1". This package
// reproduces all three facts.
package bandwidth

import (
	"repro/internal/topology"
)

// DirectedCapacity counts the directed edges (level i → level i+1) leading
// from S to S̄ under the side assignment (true = S).
func DirectedCapacity(b *topology.Butterfly, side []bool) int {
	if b.Wraparound() {
		panic("bandwidth: directed capacity is defined on Bn")
	}
	count := 0
	for _, e := range b.Edges() {
		u, v := int(e.U), int(e.V)
		if b.Level(u) > b.Level(v) {
			u, v = v, u
		}
		if side[u] && !side[v] {
			count++
		}
	}
	return count
}

// ColumnPrefixCut returns the side assignment of the cut achieving the n/2
// bound: S is the set of nodes whose column number begins with 0. Only the
// n/2 forward cross edges out of the level-0 prefix-0 nodes lead from S to
// S̄.
func ColumnPrefixCut(b *topology.Butterfly) []bool {
	side := make([]bool, b.N())
	half := b.Inputs() / 2
	for v := 0; v < b.N(); v++ {
		side[v] = b.Column(v) < half
	}
	return side
}

// MinDirectedBisection computes the exact directed bisection width by
// branch and bound, for small Bn. The admissible bound charges each
// unassigned node the cheaper of its forced forward cut edges to already
// assigned neighbors.
func MinDirectedBisection(b *topology.Butterfly) ([]bool, int) {
	if b.Wraparound() {
		panic("bandwidth: directed bisection is defined on Bn")
	}
	n := b.N()
	nIn := b.Inputs()
	half := nIn / 2

	// Seed with the column-prefix cut.
	seed := ColumnPrefixCut(b)
	best := DirectedCapacity(b, seed) + 1
	var bestSide []bool

	assign := make([]int8, n)
	for i := range assign {
		assign[i] = -1
	}
	// Per node: assigned successors in S̄ (cost if node ∈ S) and assigned
	// predecessors in S (cost if node ∈ S̄).
	succSbar := make([]int32, n)
	predS := make([]int32, n)
	cur, minSum := 0, 0
	inCount, outBarCount := 0, 0

	level := make([]int, n)
	for v := 0; v < n; v++ {
		level[v] = b.Level(v)
	}
	nodeMin := func(v int) int32 {
		if succSbar[v] < predS[v] {
			return succSbar[v]
		}
		return predS[v]
	}

	var place func(v int, s int8)
	var unplace func(v int, s int8)
	place = func(v int, s int8) {
		minSum -= int(nodeMin(v))
		assign[v] = s
		if s == 0 {
			cur += int(succSbar[v])
			if level[v] == 0 {
				inCount++
			}
		} else {
			cur += int(predS[v])
			if level[v] == b.Dim() {
				outBarCount++
			}
		}
		for _, u := range b.Neighbors(v) {
			if assign[u] != -1 {
				continue
			}
			old := nodeMin(int(u))
			if level[u] > level[v] && s == 0 {
				predS[u]++
			}
			if level[u] < level[v] && s == 1 {
				succSbar[u]++
			}
			minSum += int(nodeMin(int(u)) - old)
		}
	}
	unplace = func(v int, s int8) {
		for _, u := range b.Neighbors(v) {
			if assign[u] != -1 {
				continue
			}
			old := nodeMin(int(u))
			if level[u] > level[v] && s == 0 {
				predS[u]--
			}
			if level[u] < level[v] && s == 1 {
				succSbar[u]--
			}
			minSum += int(nodeMin(int(u)) - old)
		}
		assign[v] = -1
		if s == 0 {
			cur -= int(succSbar[v])
			if level[v] == 0 {
				inCount--
			}
		} else {
			cur -= int(predS[v])
			if level[v] == b.Dim() {
				outBarCount--
			}
		}
		minSum += int(nodeMin(v))
	}

	// Assign inputs and outputs first so the constraints prune early.
	order := make([]int, 0, n)
	order = append(order, b.InputNodes()...)
	order = append(order, b.OutputNodes()...)
	for v := 0; v < n; v++ {
		if level[v] != 0 && level[v] != b.Dim() {
			order = append(order, v)
		}
	}

	var dfs func(idx int)
	dfs = func(idx int) {
		if cur+minSum >= best {
			return
		}
		if idx == n {
			best = cur
			bestSide = make([]bool, n)
			for v, a := range assign {
				bestSide[v] = a == 0
			}
			return
		}
		v := order[idx]
		// Remaining feasibility for the input/output quotas.
		remIn, remOutBar := 0, 0
		for i := idx; i < n; i++ {
			u := order[i]
			if level[u] == 0 {
				remIn++
			}
			if level[u] == b.Dim() {
				remOutBar++
			}
		}
		for _, s := range []int8{0, 1} {
			if s == 1 && level[v] == 0 && inCount+remIn-1 < half {
				continue
			}
			if s == 0 && level[v] == b.Dim() && outBarCount+remOutBar-1 < half {
				continue
			}
			place(v, s)
			dfs(idx + 1)
			unplace(v, s)
		}
	}
	dfs(0)

	if bestSide == nil {
		return seed, DirectedCapacity(b, seed)
	}
	return bestSide, best
}
