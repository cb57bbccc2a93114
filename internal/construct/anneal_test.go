package construct

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cut"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/heuristic"
	"repro/internal/topology"
)

// AnnealOptions control simulated-annealing bisection search.
type AnnealOptions struct {
	// Sweeps is the number of full node sweeps (default 64).
	Sweeps int
	// StartTemp and EndTemp bound the geometric cooling schedule
	// (defaults 2.0 → 0.05, in units of edges).
	StartTemp, EndTemp float64
	// Seed makes the search deterministic.
	Seed int64
}

func (o AnnealOptions) withDefaults() AnnealOptions {
	if o.Sweeps <= 0 {
		o.Sweeps = 64
	}
	if o.StartTemp <= 0 {
		o.StartTemp = 2.0
	}
	if o.EndTemp <= 0 {
		o.EndTemp = 0.05
	}
	return o
}

// Anneal searches for a small bisection by simulated annealing over
// balance-preserving node swaps, then polishes the best state with FM
// refinement. Like heuristic.BisectParallel, it returns a valid bisection
// whose capacity upper-bounds BW(g). It explores differently from FM
// multi-start, so TestAnnealCannotBeatConstruction uses it as a second,
// independent adversary for the constructions.
func Anneal(g *graph.Graph, opts AnnealOptions) *cut.Cut {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	n := g.N()
	if n < 2 {
		return cut.FromSet(g, nil)
	}

	c := cut.FromSet(g, rng.Perm(n)[:n/2])
	cur := c.Capacity()
	best := c.Clone()
	bestCap := cur

	steps := opts.Sweeps * n
	if steps == 0 {
		steps = 1
	}
	cool := math.Pow(opts.EndTemp/opts.StartTemp, 1/float64(steps))
	temp := opts.StartTemp

	// Maintain the node lists per side for O(1) random swap selection.
	var inS, inT []int
	for v := 0; v < n; v++ {
		if c.InS(v) {
			inS = append(inS, v)
		} else {
			inT = append(inT, v)
		}
	}

	for step := 0; step < steps; step++ {
		i := rng.Intn(len(inS))
		j := rng.Intn(len(inT))
		u, v := inS[i], inT[j]
		// Swap gain: capacity delta of exchanging u and v.
		delta := swapDelta(g, c, u, v)
		if delta <= 0 || rng.Float64() < math.Exp(-float64(delta)/temp) {
			c.Move(u)
			c.Move(v)
			inS[i], inT[j] = v, u
			cur += delta
			if cur < bestCap {
				bestCap = cur
				best = c.Clone()
			}
		}
		temp *= cool
	}

	heuristic.RefineCut(best, 8)
	return best
}

// swapDelta computes the capacity change from swapping u ∈ S with v ∈ S̄.
func swapDelta(g *graph.Graph, c *cut.Cut, u, v int) int {
	uToS, uToT := c.DegreeToSides(u)
	vToS, vToT := c.DegreeToSides(v)
	delta := (uToS - uToT) + (vToT - vToS)
	// Edges between u and v themselves stay cut after the swap but were
	// counted as "healed" twice above; correct for their multiplicity.
	delta += 2 * g.EdgeMultiplicity(u, v)
	return delta
}

func cycleGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

func TestAnnealFindsOptimaOnSmallGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"cycle12", cycleGraph(12), 2},
		{"Q4", topology.NewHypercube(4).Graph, 8},
		{"W8", topology.NewWrappedButterfly(8).Graph, 8},
	}
	for _, c := range cases {
		bis := Anneal(c.g, AnnealOptions{Seed: 2})
		if !bis.IsBisection() {
			t.Errorf("%s: not a bisection", c.name)
		}
		if got := bis.Capacity(); got != c.want {
			t.Errorf("%s: anneal found %d, optimum is %d", c.name, got, c.want)
		}
	}
}

func TestAnnealNeverBelowExact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 8; trial++ {
		n := 8 + 2*rng.Intn(3)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		_, opt := exact.MinBisection(g)
		a := Anneal(g, AnnealOptions{Seed: int64(trial), Sweeps: 32})
		if a.Capacity() < opt {
			t.Fatalf("anneal %d beat exact optimum %d", a.Capacity(), opt)
		}
	}
}

func TestAnnealBalancePreserved(t *testing.T) {
	g := topology.NewButterfly(16).Graph
	a := Anneal(g, AnnealOptions{Seed: 5, Sweeps: 16})
	if !a.IsBisection() || a.Imbalance() > g.N()%2 {
		t.Errorf("anneal broke balance: %d/%d", a.SizeS(), a.SizeSbar())
	}
}

func TestAnnealTiny(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	if c := Anneal(empty, AnnealOptions{Seed: 1}); c.Capacity() != 0 {
		t.Errorf("empty capacity %d", c.Capacity())
	}
	one := graph.NewBuilder(1).Build()
	if c := Anneal(one, AnnealOptions{Seed: 1}); !c.IsBisection() {
		t.Errorf("singleton not a bisection")
	}
}

func TestSwapDeltaMatchesRecompute(t *testing.T) {
	// The incremental swap delta must equal the recomputed difference,
	// including parallel edges between the swapped pair.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 3)
	b.AddEdge(0, 3) // parallel pair crossing the cut
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(2, 5)
	g := b.Build()
	c := cut.FromSet(g, []int{0, 1, 2})
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		var sNodes, tNodes []int
		for v := 0; v < g.N(); v++ {
			if c.InS(v) {
				sNodes = append(sNodes, v)
			} else {
				tNodes = append(tNodes, v)
			}
		}
		u := sNodes[rng.Intn(len(sNodes))]
		v := tNodes[rng.Intn(len(tNodes))]
		before := c.Capacity()
		want := 0
		c.Move(u)
		c.Move(v)
		want = c.Capacity() - before
		c.Move(u)
		c.Move(v)
		if got := swapDelta(g, c, u, v); got != want {
			t.Fatalf("swapDelta(%d,%d) = %d, recompute %d", u, v, got, want)
		}
		// Randomly apply the swap to vary the state.
		if rng.Intn(2) == 0 {
			c.Move(u)
			c.Move(v)
		}
	}
}
