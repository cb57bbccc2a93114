// Package cut represents cuts of a network and the quantities the paper
// defines over them: capacity, bisection, U-bisection (§1.2 and §2.1), edge
// boundaries and node boundaries (neighborhoods, §1.3).
package cut

import (
	"fmt"

	"repro/internal/graph"
)

// Cut is a 2-partition (S, S̄) of the nodes of a graph. Following the paper,
// the cut is a partition of nodes; its cut edges are the edges with one
// endpoint on each side.
type Cut struct {
	g    *graph.Graph
	side []bool // side[v] == true ⇔ v ∈ S
	inS  int
}

// New wraps a side assignment as a Cut. The slice is used directly (not
// copied); callers who mutate it afterwards must go through Move.
func New(g *graph.Graph, side []bool) *Cut {
	if len(side) != g.N() {
		panic(fmt.Sprintf("cut: side slice has %d entries for %d nodes", len(side), g.N()))
	}
	inS := 0
	for _, s := range side {
		if s {
			inS++
		}
	}
	return &Cut{g: g, side: side, inS: inS}
}

// FromSet builds the cut (S, S̄) with S given as a node list.
func FromSet(g *graph.Graph, s []int) *Cut {
	side := make([]bool, g.N())
	for _, v := range s {
		if side[v] {
			panic(fmt.Sprintf("cut: node %d listed twice", v))
		}
		side[v] = true
	}
	return New(g, side)
}

// Graph returns the underlying graph.
func (c *Cut) Graph() *graph.Graph { return c.g }

// InS reports whether v ∈ S.
func (c *Cut) InS(v int) bool { return c.side[v] }

// SizeS returns |S|.
func (c *Cut) SizeS() int { return c.inS }

// SizeSbar returns |S̄|.
func (c *Cut) SizeSbar() int { return c.g.N() - c.inS }

// Imbalance returns | |S| − |S̄| |.
func (c *Cut) Imbalance() int {
	d := c.inS - c.SizeSbar()
	if d < 0 {
		d = -d
	}
	return d
}

// Move transfers node v to the other side.
func (c *Cut) Move(v int) {
	if c.side[v] {
		c.inS--
	} else {
		c.inS++
	}
	c.side[v] = !c.side[v]
}

// Clone returns an independent copy of the cut.
func (c *Cut) Clone() *Cut {
	side := make([]bool, len(c.side))
	copy(side, c.side)
	return &Cut{g: c.g, side: side, inS: c.inS}
}

// Capacity returns C(S,S̄), the number of cut edges (parallel edges counted
// separately).
func (c *Cut) Capacity() int {
	cap := 0
	for _, e := range c.g.Edges() {
		if c.side[e.U] != c.side[e.V] {
			cap++
		}
	}
	return cap
}

// IsBisection reports whether the cut is a bisection: both sides have at
// most ⌈N/2⌉ nodes (§1.2).
func (c *Cut) IsBisection() bool {
	half := (c.g.N() + 1) / 2
	return c.inS <= half && c.SizeSbar() <= half
}

// BisectsSubset reports whether the cut bisects the node set U in the sense
// of §2.1: ||S∩U| − |S̄∩U|| ≤ 1.
func (c *Cut) BisectsSubset(u []int) bool {
	in := 0
	for _, v := range u {
		if c.side[v] {
			in++
		}
	}
	d := 2*in - len(u)
	return d >= -1 && d <= 1
}

// CountIn returns |S ∩ U|.
func (c *Cut) CountIn(u []int) int {
	in := 0
	for _, v := range u {
		if c.side[v] {
			in++
		}
	}
	return in
}

// EdgeBoundary returns C(S, S̄) for the set S given as a node list: the
// paper's edge expansion of S (§1.3).
func EdgeBoundary(g *graph.Graph, s []int) int {
	return FromSet(g, s).Capacity()
}

// NodeBoundary returns N(S), the nodes outside S adjacent to S, in
// increasing order: the paper's neighbor set (§1.3).
func NodeBoundary(g *graph.Graph, s []int) []int {
	inS := make([]bool, g.N())
	for _, v := range s {
		inS[v] = true
	}
	mark := make([]bool, g.N())
	for _, v := range s {
		for _, u := range g.Neighbors(v) {
			if !inS[u] {
				mark[u] = true
			}
		}
	}
	var out []int
	for v, m := range mark {
		if m {
			out = append(out, v)
		}
	}
	return out
}

// DegreeToSides returns, for node v, the number of its incident edges whose
// other endpoint lies in S and in S̄ respectively. Solvers use it for
// incremental gain computations.
func (c *Cut) DegreeToSides(v int) (toS, toSbar int) {
	for _, u := range c.g.Neighbors(v) {
		if c.side[u] {
			toS++
		} else {
			toSbar++
		}
	}
	return toS, toSbar
}
