package heuristic

import (
	"context"
	"testing"
	"time"

	"repro/internal/cut"
	"repro/internal/graph"
	"repro/internal/topology"
)

func TestBisectParallelMatchesSerial(t *testing.T) {
	// Serial and parallel multi-start draw start i from
	// StartSeed(seed, i) with lowest-index tie-breaks, so for the same
	// options they must return identical cuts, independent of the worker
	// partition — and repeat runs must be deterministic.
	g := topology.NewWrappedButterfly(8).Graph
	opts := BisectOptions{Starts: 8, Seed: 100}
	par := BisectParallel(g, opts)
	if !par.IsBisection() {
		t.Fatalf("not a bisection")
	}
	ser := Bisect(g, opts)
	if par.Capacity() != ser.Capacity() {
		t.Errorf("parallel best %d, serial best %d", par.Capacity(), ser.Capacity())
	}
	for v := 0; v < g.N(); v++ {
		if par.InS(v) != ser.InS(v) {
			t.Fatalf("parallel and serial cuts differ at node %d", v)
		}
	}
	again := BisectParallel(g, opts)
	if again.Capacity() != par.Capacity() {
		t.Errorf("nondeterministic: %d vs %d", again.Capacity(), par.Capacity())
	}
}

func TestStartSeedDecorrelatesNearbyBases(t *testing.T) {
	// The splitmix64 mix must not let base seeds S and S+1 share start
	// streams (the old Seed+i scheme shared all but one).
	seen := make(map[int64]bool)
	for base := int64(0); base < 16; base++ {
		for i := 0; i < 16; i++ {
			s := StartSeed(base, i)
			if seen[s] {
				t.Fatalf("StartSeed collision at base=%d i=%d", base, i)
			}
			seen[s] = true
		}
	}
}

func TestBisectCancelledStillBisection(t *testing.T) {
	g := topology.NewWrappedButterfly(16).Graph
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	ser := Bisect(g, BisectOptions{Starts: 64, Seed: 7, Ctx: ctx})
	par := BisectParallel(g, BisectOptions{Starts: 64, Seed: 7, Ctx: ctx})
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancelled searches took %v", took)
	}
	if !ser.IsBisection() || !par.IsBisection() {
		t.Fatal("cancelled search returned a non-bisection")
	}
}

func TestBisectParallelFindsOptimum(t *testing.T) {
	c := topology.NewCCC(8)
	bis := BisectParallel(c.Graph, BisectOptions{Starts: 16, Seed: 1})
	if bis.Capacity() != 4 {
		t.Errorf("parallel search found %d, optimum is 4", bis.Capacity())
	}
}

func TestBisectParallelEmpty(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	if c := BisectParallel(g, BisectOptions{Seed: 1}); c.Capacity() != 0 {
		t.Errorf("empty graph capacity %d", c.Capacity())
	}
}

// Bisect is the serial multi-start search, the reference BisectParallel is
// held to: start i draws from StartSeed(opts.Seed, i), and ties between
// equal capacities resolve to the lowest start index, so for the same
// options both return identical cuts.
func Bisect(g *graph.Graph, opts BisectOptions) *cut.Cut {
	opts = opts.withDefaults()
	if g.N() == 0 {
		return cut.FromSet(g, nil)
	}
	var best *cut.Cut
	bestCap := -1
	for start := 0; start < opts.Starts; start++ {
		c := oneStart(g, StartSeed(opts.Seed, start), opts.MaxPasses, opts.Ctx)
		if cap := c.Capacity(); bestCap < 0 || cap < bestCap {
			best, bestCap = c, cap
		}
	}
	return best
}
