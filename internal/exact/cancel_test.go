package exact

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cut"
	"repro/internal/graph"
	"repro/internal/solve"
	"repro/internal/topology"
)

// checkFeasibleSet asserts that set is a valid k-subset of g's nodes and
// that val is exactly its measured boundary.
func checkFeasibleSet(t *testing.T, g *graph.Graph, set []int, k, val int, edge bool) {
	t.Helper()
	if len(set) != k {
		t.Fatalf("incumbent set has %d nodes, want %d", len(set), k)
	}
	seen := make(map[int]bool)
	for _, v := range set {
		if v < 0 || v >= g.N() {
			t.Fatalf("set node %d out of range [0,%d)", v, g.N())
		}
		if seen[v] {
			t.Fatalf("set node %d duplicated", v)
		}
		seen[v] = true
	}
	measured := cut.EdgeBoundary(g, set)
	if !edge {
		measured = len(cut.NodeBoundary(g, set))
	}
	if val != measured {
		t.Fatalf("reported value %d != measured boundary %d", val, measured)
	}
}

func TestSolveEdgeExpansionCancelledMidSearch(t *testing.T) {
	// W16 with a large unseeded k runs for many seconds uncancelled
	// (EE(W16,10) alone takes ~4s serial); cancelling after 30ms must
	// return promptly with a feasible non-exact incumbent.
	g := topology.NewWrappedButterfly(16).Graph
	k := 16
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	startWait := time.Now()
	res := SolveEdgeExpansion(ctx, g, k, SolveOptions{})
	took := time.Since(startWait)
	if took > 2*time.Second {
		t.Fatalf("cancelled solve took %v, want prompt return", took)
	}
	if res.Exact {
		t.Fatal("cancelled solve claims Exact")
	}
	checkFeasibleSet(t, g, res.Set, k, res.Value, true)
	if res.Explored == 0 {
		t.Fatal("no explored nodes recorded before cancellation")
	}
}

func TestSolveNodeExpansionCancelledSerial(t *testing.T) {
	g := topology.NewWrappedButterfly(16).Graph
	k := 14
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	res := SolveNodeExpansion(ctx, g, k, SolveOptions{Workers: 1})
	if res.Exact {
		t.Fatal("cancelled serial solve claims Exact")
	}
	checkFeasibleSet(t, g, res.Set, k, res.Value, false)
}

func TestSolveExpansionDeadlineZero(t *testing.T) {
	// An instance far beyond exact reach must still return immediately
	// under an already-expired deadline, with the feasible fallback.
	g := topology.NewWrappedButterfly(64).Graph
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	start := time.Now()
	res := SolveEdgeExpansion(ctx, g, 100, SolveOptions{})
	if took := time.Since(start); took > time.Second {
		t.Fatalf("deadline-zero solve took %v, want immediate return", took)
	}
	if res.Exact {
		t.Fatal("deadline-zero solve claims Exact")
	}
	checkFeasibleSet(t, g, res.Set, 100, res.Value, true)
}

func TestSolveExpansionSeededCancelledFallsBack(t *testing.T) {
	// A pre-cancelled seeded search finds nothing (the seed incumbent has
	// no witness set); it must return the feasible fallback rather than
	// rerunning unseeded.
	g := topology.NewWrappedButterfly(16).Graph
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := SolveEdgeExpansion(ctx, g, 8, SolveOptions{Bound: 1})
	if res.Exact {
		t.Fatal("cancelled seeded solve claims Exact")
	}
	checkFeasibleSet(t, g, res.Set, 8, res.Value, true)
}

func TestSolveExpansionUncancelledMatchesMin(t *testing.T) {
	g := topology.NewWrappedButterfly(8).Graph
	for _, k := range []int{3, 4, 6} {
		wantEE := minEE(g, k, serial)
		res := SolveEdgeExpansion(context.Background(), g, k, SolveOptions{})
		if !res.Exact {
			t.Fatalf("uncancelled solve k=%d not Exact", k)
		}
		if res.Value != wantEE {
			t.Fatalf("EE k=%d: solve=%d min=%d", k, res.Value, wantEE)
		}
		checkFeasibleSet(t, g, res.Set, k, res.Value, true)
		if res.Explored <= 0 {
			t.Fatalf("EE k=%d: explored=%d, want > 0", k, res.Explored)
		}

		wantNE := minNE(g, k, fanned)
		nres := SolveNodeExpansion(context.Background(), g, k, SolveOptions{Workers: 1})
		if !nres.Exact || nres.Value != wantNE {
			t.Fatalf("NE k=%d: solve=(%d,%v) min=%d", k, nres.Value, nres.Exact, wantNE)
		}
	}
}

func TestSolveExpansionContainingAndBound(t *testing.T) {
	g := topology.NewWrappedButterfly(8).Graph
	want := minEE(g, 5, rootedAt(0, serial))
	res := SolveEdgeExpansion(context.Background(), g, 5, SolveOptions{
		Containing: true, Root: 0, Bound: want,
	})
	if !res.Exact || res.Value != want {
		t.Fatalf("containing+bound solve = (%d,%v), want (%d,true)", res.Value, res.Exact, want)
	}
	for _, v := range res.Set {
		if v == 0 {
			return
		}
	}
	t.Fatal("root 0 missing from containing solve witness")
}

func TestSolveBisectionCancelledMidSearch(t *testing.T) {
	// Q7 bisection (128 nodes) is far beyond the exact engine in seconds.
	g := topology.NewHypercube(7).Graph
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := SolveBisection(ctx, g, SolveOptions{})
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("cancelled bisection took %v, want prompt return", took)
	}
	if res.Exact {
		t.Fatal("cancelled bisection claims Exact")
	}
	if !res.Cut.IsBisection() {
		t.Fatal("cancelled bisection incumbent is not a bisection")
	}
	if res.Width != res.Cut.Capacity() {
		t.Fatalf("reported width %d != cut capacity %d", res.Width, res.Cut.Capacity())
	}
}

func TestSolveBisectionSerialDeadlineZero(t *testing.T) {
	g := topology.NewHypercube(7).Graph
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	res := SolveBisection(ctx, g, SolveOptions{Workers: 1})
	if res.Exact {
		t.Fatal("deadline-zero bisection claims Exact")
	}
	if !res.Cut.IsBisection() || res.Width != res.Cut.Capacity() {
		t.Fatal("deadline-zero bisection incumbent invalid")
	}
}

func TestSolveBisectionUncancelledMatchesMin(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"Q4": topology.NewHypercube(4).Graph,
		"B8": topology.NewButterfly(8).Graph,
	} {
		_, want := MinBisection(g)
		for _, workers := range []int{1, 0} {
			res := SolveBisection(context.Background(), g, SolveOptions{Workers: workers})
			if !res.Exact || res.Width != want {
				t.Fatalf("%s workers=%d: solve=(%d,%v), want (%d,true)",
					name, workers, res.Width, res.Exact, want)
			}
			if !res.Cut.IsBisection() {
				t.Fatalf("%s: witness not a bisection", name)
			}
		}
	}
}

func TestSolveSubsetBisection(t *testing.T) {
	b := topology.NewButterfly(4)
	g := b.Graph
	u := b.InputNodes()
	_, want := MinSubsetBisection(g, u)
	res := SolveSubsetBisection(context.Background(), g, u, SolveOptions{})
	if !res.Exact || res.Width != want {
		t.Fatalf("subset solve = (%d,%v), want (%d,true)", res.Width, res.Exact, want)
	}
	if !res.Cut.BisectsSubset(u) {
		t.Fatal("subset solve witness does not bisect u")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cres := SolveSubsetBisection(ctx, g, u, SolveOptions{})
	if cres.Exact {
		t.Fatal("pre-cancelled subset solve claims Exact")
	}
	if !cres.Cut.BisectsSubset(u) {
		t.Fatal("pre-cancelled subset incumbent does not bisect u")
	}
}

func TestSolveProgressCallbackFires(t *testing.T) {
	g := topology.NewWrappedButterfly(16).Graph
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	done := make(chan Result, 1)
	go func() {
		done <- SolveEdgeExpansion(ctx, g, 16, SolveOptions{
			OnProgress: func(p solve.Progress) {
				if calls.Add(1) >= 3 {
					cancel()
				}
			},
			ProgressInterval: 5 * time.Millisecond,
		})
	}()
	select {
	case res := <-done:
		if calls.Load() < 3 {
			t.Fatalf("solve finished with only %d progress calls", calls.Load())
		}
		if res.Exact {
			t.Fatal("progress-cancelled solve claims Exact")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled solve did not return")
	}
}

func TestSurveyCancelledReportsNonExact(t *testing.T) {
	g := topology.NewWrappedButterfly(16).Graph
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results := ExpansionSurveyWithOptions(g, []int{2, 14, 15, 16}, 0, 0, SurveyOptions{Ctx: ctx})
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancelled survey took %v", took)
	}
	sawNonExact := false
	for _, r := range results {
		checkFeasibleSet(t, g, r.EESet, r.K, r.EE, true)
		checkFeasibleSet(t, g, r.NESet, r.K, r.NE, false)
		if !r.EEExact || !r.NEExact {
			sawNonExact = true
		}
	}
	if !sawNonExact {
		t.Skip("survey finished before cancellation on this machine")
	}
}

func TestSurveyUncancelledStaysExact(t *testing.T) {
	g := topology.NewWrappedButterfly(8).Graph
	results := ExpansionSurveyWithOptions(g, []int{0, 2, 4}, 0, 0, SurveyOptions{})
	for _, r := range results {
		if !r.EEExact || !r.NEExact {
			t.Fatalf("uncancelled survey row k=%d not exact", r.K)
		}
	}
	// Cross-check against the one-shot solver.
	want := minEE(g, 4, rootedAt(0, serial))
	if results[2].EE != want {
		t.Fatalf("survey EE(8,4)=%d, want %d", results[2].EE, want)
	}
	if results[2].EEExplored <= 0 {
		t.Fatalf("survey explored=%d for a real search, want > 0", results[2].EEExplored)
	}
}

// SolveSubsetBisection computes BW(g, u) (§2.1) under ctx; serial (the
// subset solver has no parallel variant). Workers is ignored.
func SolveSubsetBisection(ctx context.Context, g *graph.Graph, u []int, opts SolveOptions) BisectionResult {
	mon := opts.monitor(ctx)
	defer mon.Close()
	c, w, exact := minSubsetBisectionSearch(g, u, mon)
	return BisectionResult{
		Cut: c, Width: w, Exact: exact,
		Explored: mon.Explored(), Pruned: mon.Pruned(), Elapsed: mon.Elapsed(),
	}
}
