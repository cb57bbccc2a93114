package exact

import (
	"bytes"
	"context"
	"encoding/json"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cut"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/topology"
)

// bruteMinBoundary returns the minimum edge and node boundary over all
// k-subsets of g's nodes (at most 32), enumerated one combination at a
// time.
func bruteMinBoundary(g *graph.Graph, k int) (ee, ne int) {
	n := g.N()
	nbrs := make([]uint32, n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			nbrs[v] |= 1 << u
		}
	}
	ee, ne = 1<<30, 1<<30
	var pick func(from, left int, mask uint32)
	pick = func(from, left int, mask uint32) {
		if left > 0 {
			for v := from; v <= n-left; v++ {
				pick(v+1, left-1, mask|1<<v)
			}
			return
		}
		e, reach := 0, uint32(0)
		for v := 0; v < n; v++ {
			if mask>>v&1 == 0 {
				continue
			}
			reach |= nbrs[v]
			for _, u := range g.Neighbors(v) {
				if mask>>u&1 == 0 {
					e++
				}
			}
		}
		ee, ne = min(ee, e), min(ne, bits.OnesCount32(reach&^mask))
	}
	pick(0, k, 0)
	return ee, ne
}

// checkWorkersAgree solves EE and NE for k on each worker count and checks
// every answer against bruteMinBoundary.
func checkWorkersAgree(t *testing.T, name string, g *graph.Graph, k int, workers ...int) {
	t.Helper()
	ee, ne := bruteMinBoundary(g, k)
	for _, w := range workers {
		opts := SolveOptions{Workers: w}
		res := SolveEdgeExpansion(context.Background(), g, k, opts)
		if res.Value != ee {
			t.Errorf("%s k=%d workers=%d: EE %d, brute force %d", name, k, w, res.Value, ee)
		}
		if len(res.Set) != k || cut.EdgeBoundary(g, res.Set) != res.Value {
			t.Errorf("%s k=%d workers=%d: invalid EE witness", name, k, w)
		}
		res = SolveNodeExpansion(context.Background(), g, k, opts)
		if res.Value != ne {
			t.Errorf("%s k=%d workers=%d: NE %d, brute force %d", name, k, w, res.Value, ne)
		}
		if len(res.Set) != k || len(cut.NodeBoundary(g, res.Set)) != res.Value {
			t.Errorf("%s k=%d workers=%d: invalid NE witness", name, k, w)
		}
	}
}

func TestParallelExpansionMatchesSerialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		n := 16 + rng.Intn(6)
		g := randomGraph(rng, n, 3*n)
		for k := 1; k <= 6; k++ {
			checkWorkersAgree(t, "random", g, k, 1, 3)
		}
	}
}

func TestParallelExpansionMatchesSerialButterflies(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"W8": topology.NewWrappedButterfly(8).Graph,
		"B4": topology.NewButterfly(4).Graph,
	} {
		for k := 1; k <= 5; k++ {
			checkWorkersAgree(t, name, g, k, 1, 4)
		}
	}
}

func TestParallelExpansionWorkerCounts(t *testing.T) {
	g := topology.NewWrappedButterfly(8).Graph
	want := minEE(g, 4, serial)
	for _, workers := range []int{0, 1, 2, 8} {
		if got := minEE(g, 4, SolveOptions{Workers: workers}); got != want {
			t.Errorf("workers=%d: %d, want %d", workers, got, want)
		}
	}
}

func TestParallelExpansionSeeding(t *testing.T) {
	g := topology.NewWrappedButterfly(8).Graph
	ee, ne := minEE(g, 4, serial), minNE(g, 4, serial)
	for _, workers := range []int{1, 2} {
		seeded := func(bound int) SolveOptions { return SolveOptions{Workers: workers, Bound: bound} }
		// An exact seed (the optimum itself) must still be found and
		// returned.
		if got := minEE(g, 4, seeded(ee)); got != ee {
			t.Errorf("workers=%d exact seed: EE %d, want %d", workers, got, ee)
		}
		// A loose seed prunes less but changes nothing.
		if got := minEE(g, 4, seeded(ee+10)); got != ee {
			t.Errorf("workers=%d loose seed: EE %d, want %d", workers, got, ee)
		}
		// A seed below the optimum (caller error) triggers the unseeded
		// fallback and stays exact.
		if got := minEE(g, 4, seeded(ee-1)); got != ee {
			t.Errorf("workers=%d undercut seed: EE %d, want %d", workers, got, ee)
		}
		if got := minNE(g, 4, seeded(ne-1)); got != ne {
			t.Errorf("workers=%d undercut seed: NE %d, want %d", workers, got, ne)
		}
	}
}

func TestExpansionSurveyMatchesIndividual(t *testing.T) {
	g := topology.NewWrappedButterfly(8).Graph
	ks := []int{0, 1, 2, 3, 4, 5, g.N()}
	res := ExpansionSurveyWithOptions(g, ks, 3, SurveyOptions{})
	if len(res) != len(ks) {
		t.Fatalf("%d results for %d ks", len(res), len(ks))
	}
	for i, k := range ks {
		r := res[i]
		if r.K != k {
			t.Fatalf("result %d has K=%d, want %d", i, r.K, k)
		}
		ee, ne := minEE(g, k, serial), minNE(g, k, serial)
		if r.EE != ee || r.NE != ne {
			t.Errorf("k=%d: survey EE/NE %d/%d, serial %d/%d", k, r.EE, r.NE, ee, ne)
		}
		if k > 0 && k < g.N() {
			if cut.EdgeBoundary(g, r.EESet) != r.EE {
				t.Errorf("k=%d: EE witness boundary mismatch", k)
			}
			if len(cut.NodeBoundary(g, r.NESet)) != r.NE {
				t.Errorf("k=%d: NE witness boundary mismatch", k)
			}
		}
	}
}

func TestExpansionSurveySeeded(t *testing.T) {
	// Seed sets: an optimal one for one k, a malformed one (a repeated
	// node) for another and none for the third — every row must still come
	// out exact.
	g := topology.NewWrappedButterfly(8).Graph
	ks := []int{2, 4, 6}
	seeds := map[int][]int{2: SolveEdgeExpansion(context.Background(), g, 2, serial).Set, 4: {0, 1, 1, 2}}
	res := ExpansionSurveyWithOptions(g, ks, 2, SurveyOptions{
		EdgeSeed: func(k int) []int { return seeds[k] },
	})
	for i, k := range ks {
		ee, ne := minEE(g, k, serial), minNE(g, k, serial)
		if !res[i].EEExact || !res[i].NEExact || res[i].EE != ee || res[i].NE != ne {
			t.Errorf("k=%d: survey EE/NE %d/%d (exact %v/%v), serial %d/%d",
				k, res[i].EE, res[i].NE, res[i].EEExact, res[i].NEExact, ee, ne)
		}
		checkFeasibleSet(t, g, res[i].EESet, k, res[i].EE, true)
		checkFeasibleSet(t, g, res[i].NESet, k, res[i].NE, false)
	}
}

// TestSurveyEdgeTableTelemetry pins how the edge table sweep reports: one
// trace event per step m = 1..K−1 in order, incumbents only from the
// requested searches (here seeded with their optima, so each publishes
// its optimum once), and row explored counts that add up to the whole
// survey's, so every table step is counted exactly once.
func TestSurveyEdgeTableTelemetry(t *testing.T) {
	g := topology.NewWrappedButterfly(16).Graph
	var trace bytes.Buffer
	seeds := map[int]int{4: 8, 12: 16}
	witness := func(k int) []int { return SolveEdgeExpansion(context.Background(), g, k, serial).Set }
	witnesses := map[int][]int{4: witness(4), 12: witness(12)}
	res := ExpansionSurveyWithOptions(g, []int{4, 12}, 1, SurveyOptions{
		EdgeOnly: true,
		EdgeSeed: func(k int) []int { return witnesses[k] },
		Trace:    obs.NewTracer(&trace),
	})
	var steps []int
	var total int64
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var ev struct {
			Type, Name string
			Attrs      map[string]any
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		attr := func(key string) int {
			f, _ := ev.Attrs[key].(float64)
			return int(f)
		}
		switch {
		case ev.Name == "edge_table":
			steps = append(steps, attr("m"))
			if m, v := attr("m"), attr("value"); seeds[m] != 0 && v != seeds[m] {
				t.Errorf("table step m=%d certified %d, want %d", m, v, seeds[m])
			}
		case ev.Name == "incumbent":
			if v := attr("value"); v != 8 && v != 16 {
				t.Errorf("incumbent %d published; only the requested searches' optima 8 and 16 may be", v)
			}
		case ev.Type == "span_end":
			total = int64(attr("explored"))
		}
	}
	if want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}; !slices.Equal(steps, want) {
		t.Errorf("edge_table events for m = %v, want %v", steps, want)
	}
	if res[0].EE != 8 || res[1].EE != 16 || !res[0].EEExact || !res[1].EEExact {
		t.Fatalf("survey EE(W16,4/12) = %d/%d, want certified 8/16", res[0].EE, res[1].EE)
	}
	if sum := res[0].EEExplored + res[1].EEExplored; sum != total || total == 0 {
		t.Errorf("rows explored %d + %d = %d, survey total %d", res[0].EEExplored, res[1].EEExplored, sum, total)
	}
}

func TestExpansionSurveyQuantitySelection(t *testing.T) {
	g := topology.NewWrappedButterfly(8).Graph
	edgeOnly := ExpansionSurveyWithOptions(g, []int{3}, 2, SurveyOptions{EdgeOnly: true})
	if edgeOnly[0].NE != NotComputed || edgeOnly[0].NESet != nil {
		t.Errorf("EdgeOnly computed NE: %+v", edgeOnly[0])
	}
	if ee := minEE(g, 3, serial); edgeOnly[0].EE != ee {
		t.Errorf("EdgeOnly EE %d, want %d", edgeOnly[0].EE, ee)
	}
	nodeOnly := ExpansionSurveyWithOptions(g, []int{3}, 2, SurveyOptions{NodeOnly: true})
	if nodeOnly[0].EE != NotComputed || nodeOnly[0].EESet != nil {
		t.Errorf("NodeOnly computed EE: %+v", nodeOnly[0])
	}
}

func TestExpansionSurveyTinyGraph(t *testing.T) {
	// Below 16 nodes every search is one job, however many workers;
	// results must still match the individual solvers.
	g := cycleGraph(10)
	res := ExpansionSurveyWithOptions(g, []int{1, 3, 5}, 4, SurveyOptions{})
	for i, k := range []int{1, 3, 5} {
		if res[i].EE != 2 || res[i].NE != 2 {
			t.Errorf("k=%d: EE/NE %d/%d, want 2/2", k, res[i].EE, res[i].NE)
		}
	}
}

func TestExpansionSurveyValidation(t *testing.T) {
	g := cycleGraph(6)
	for _, bad := range [][]int{{-1}, {7}} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ks=%v did not panic", bad)
				}
			}()
			ExpansionSurveyWithOptions(g, bad, 1, SurveyOptions{})
		}()
	}
}

// TestIncrementalLeafAccounting pins the O(1) leaf counters against the
// direct cut computations on a graph with parallel edges, which the CSR
// substrate supports and the counters must handle per-edge.
func TestIncrementalLeafAccounting(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // parallel
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 0)
	g := b.Build()
	st := newExpState(g, bfsOrder(g))
	rng := rand.New(rand.NewSource(7))
	for _, edge := range []bool{true, false} {
		for trial := 0; trial < 50; trial++ {
			var placed []int
			for v := 0; v < g.N(); v++ {
				switch rng.Intn(3) {
				case 0:
					st.place(v, sideS, edge)
					placed = append(placed, v)
				case 1:
					st.place(v, sideSbar, edge)
					placed = append(placed, v)
				}
			}
			// Treating undecided as out: compare counters with cut package.
			var sOnly []int
			for v := 0; v < g.N(); v++ {
				if st.assign[v] == sideS {
					sOnly = append(sOnly, v)
				}
			}
			if edge {
				if got, want := st.permCut+st.inUnd, cut.EdgeBoundary(g, sOnly); got != want {
					t.Fatalf("trial %d: edge counters %d, boundary %d", trial, got, want)
				}
			} else if got, want := st.permNbrs+st.undWithIn, len(cut.NodeBoundary(g, sOnly)); got != want {
				t.Fatalf("trial %d: node counters %d, boundary %d", trial, got, want)
			}
			for i := len(placed) - 1; i >= 0; i-- {
				st.unplace(placed[i], edge)
			}
			if st.permCut != 0 || st.inUnd != 0 || st.permNbrs != 0 || st.undWithIn != 0 || st.chosen != 0 {
				t.Fatalf("trial %d: counters not restored: %+v", trial, st)
			}
			for v := 0; v < g.N(); v++ {
				if st.inNbrs[v] != 0 {
					t.Fatalf("trial %d: inNbrs[%d] = %d after full unplace", trial, v, st.inNbrs[v])
				}
			}
		}
	}
}
