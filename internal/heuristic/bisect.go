// Package heuristic provides upper-bound search for minimum bisections and
// expansion sets on networks too large for package exact: a
// Fiduccia–Mattheyses-style local refinement with multi-start, and greedy
// set growth for edge/node expansion.
//
// The experiments use these as an adversary for the paper's constructions:
// the search tries to beat a constructed cut, and failing to do so on
// moderate sizes is evidence the construction is near-optimal.
package heuristic

import (
	"container/heap"
	"context"
	"math/rand"

	"repro/internal/cut"
	"repro/internal/graph"
	"repro/internal/obs"
)

// BisectOptions control the bisection search.
type BisectOptions struct {
	// Starts is the number of random restarts (default 8).
	Starts int
	// Seed makes the search deterministic.
	Seed int64
	// Ctx cancels the search between refinement passes. The result is
	// still always a valid bisection — the best cut refined so far — just
	// a weaker upper bound than an uncancelled run would produce. nil
	// means never cancelled.
	Ctx context.Context
	// Label names the search in trace spans; Trace, when non-nil,
	// receives a span per BisectParallel run with the start count and the
	// best capacity found.
	Label string
	Trace *obs.Tracer
}

func (o BisectOptions) withDefaults() BisectOptions {
	if o.Starts <= 0 {
		o.Starts = 8
	}
	return o
}

// startPasses bounds the refinement passes of one random start, and of
// RefineCut when its caller gives no bound.
const startPasses = 16

// oneStart runs a single random start: draw a balanced cut from seed,
// refine it under ctx for up to startPasses passes. Even a pre-cancelled
// ctx yields a valid (merely unrefined) bisection.
func oneStart(g *graph.Graph, seed int64, ctx context.Context) *cut.Cut {
	rng := rand.New(rand.NewSource(seed))
	c := cut.New(g, randomBalancedSide(g.N(), rng))
	refineCtx(c, startPasses, ctx)
	return c
}

func cancelled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// RefineCut runs at most maxPasses FM refinement passes on an existing cut
// in place (it must be a bisection; balance is preserved to within one
// node). It returns the refined cut's capacity. Use it to try to improve a
// constructed cut.
func RefineCut(c *cut.Cut, maxPasses int) int {
	refine(c, maxPasses)
	return c.Capacity()
}

func randomBalancedSide(n int, rng *rand.Rand) []bool {
	perm := rng.Perm(n)
	side := make([]bool, n)
	for i := 0; i < n/2; i++ {
		side[perm[i]] = true
	}
	return side
}

// gainItem is a heap entry with lazy invalidation: stale entries (whose gain
// no longer matches the node's current gain) are skipped on pop.
type gainItem struct {
	gain int32
	v    int32
}

type gainHeap []gainItem

func (h gainHeap) Len() int            { return len(h) }
func (h gainHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h gainHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x interface{}) { *h = append(*h, x.(gainItem)) }
func (h *gainHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

func refine(c *cut.Cut, maxPasses int) {
	refineCtx(c, maxPasses, nil)
}

// refineCtx runs FM passes until a pass yields no improvement, maxPasses
// is reached, or ctx is cancelled. Each pass tentatively moves every node
// once (always from the currently larger or equal side, keeping balance
// within one node), tracks the best balanced prefix, and rolls back the
// rest. Cancellation is only observed between passes — a completed pass
// leaves the cut a valid bisection, so stopping there needs no unwinding.
func refineCtx(c *cut.Cut, maxPasses int, ctx context.Context) {
	g := c.Graph()
	n := g.N()
	gain := make([]int32, n)
	locked := make([]bool, n)
	moved := make([]int32, 0, n)

	for pass := 0; pass < maxPasses; pass++ {
		if cancelled(ctx) {
			return
		}
		startCap := c.Capacity()
		curCap := startCap
		bestPrefixCap := startCap
		bestPrefixLen := 0
		moved = moved[:0]
		for v := range locked {
			locked[v] = false
		}

		// Two heaps, one per side, so the side to move from can be forced.
		var heapS, heapT gainHeap
		for v := 0; v < n; v++ {
			toS, toSbar := c.DegreeToSides(v)
			if c.InS(v) {
				gain[v] = int32(toSbar - toS)
				heapS = append(heapS, gainItem{gain[v], int32(v)})
			} else {
				gain[v] = int32(toS - toSbar)
				heapT = append(heapT, gainItem{gain[v], int32(v)})
			}
		}
		heap.Init(&heapS)
		heap.Init(&heapT)

		pop := func(h *gainHeap, wantInS bool) int {
			for h.Len() > 0 {
				item := heap.Pop(h).(gainItem)
				v := int(item.v)
				if locked[v] || c.InS(v) != wantInS || item.gain != gain[v] {
					continue
				}
				return v
			}
			return -1
		}

		for step := 0; step < n; step++ {
			// Move from the larger side; on exact balance, from whichever
			// heap offers the better gain.
			var v int
			switch {
			case c.SizeS() > c.SizeSbar():
				v = pop(&heapS, true)
			case c.SizeS() < c.SizeSbar():
				v = pop(&heapT, false)
			default:
				v = popBest(&heapS, &heapT, c, locked, gain, pop)
			}
			if v < 0 {
				break
			}
			curCap -= int(gain[v])
			wasInS := c.InS(v)
			c.Move(v)
			locked[v] = true
			moved = append(moved, int32(v))

			// Update neighbor gains.
			for _, u := range g.Neighbors(v) {
				if locked[u] {
					continue
				}
				// v switched sides: if u is on v's old side, the edge
				// {u,v} became cut, improving u's move gain by 2;
				// otherwise it is no longer cut, worsening it by 2.
				if c.InS(int(u)) == wasInS {
					gain[u] += 2
				} else {
					gain[u] -= 2
				}
				item := gainItem{gain[u], u}
				if c.InS(int(u)) {
					heap.Push(&heapS, item)
				} else {
					heap.Push(&heapT, item)
				}
			}

			if c.Imbalance() <= n%2 && curCap < bestPrefixCap {
				bestPrefixCap = curCap
				bestPrefixLen = len(moved)
			}
		}

		// Roll back moves beyond the best balanced prefix.
		for i := len(moved) - 1; i >= bestPrefixLen; i-- {
			c.Move(int(moved[i]))
		}
		if bestPrefixCap >= startCap {
			return // no improvement; local optimum
		}
	}
}

// popBest pops the better-gain valid node from either heap when both sides
// are movable.
func popBest(hS, hT *gainHeap, c *cut.Cut, locked []bool, gain []int32,
	pop func(*gainHeap, bool) int) int {
	peek := func(h *gainHeap, wantInS bool) (int32, bool) {
		for h.Len() > 0 {
			item := (*h)[0]
			v := int(item.v)
			if locked[v] || c.InS(v) != wantInS || item.gain != gain[v] {
				heap.Pop(h)
				continue
			}
			return item.gain, true
		}
		return 0, false
	}
	gs, okS := peek(hS, true)
	gt, okT := peek(hT, false)
	switch {
	case okS && (!okT || gs >= gt):
		return pop(hS, true)
	case okT:
		return pop(hT, false)
	default:
		return -1
	}
}
