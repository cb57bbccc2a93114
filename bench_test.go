// Benchmarks: one per experiment of DESIGN.md (E1–E17), regenerating the
// rows/series of the paper's results, plus ablations of the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/cut"
	"repro/internal/embed"
	"repro/internal/emulation"
	"repro/internal/exact"
	"repro/internal/expansion"
	"repro/internal/flow"
	"repro/internal/heuristic"
	"repro/internal/layout"
	"repro/internal/mos"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/variants"
)

// --- E1: Fig. 1 / §1.1 structure ---

func BenchmarkFig1Structure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := core.ButterflyStructure(8, false)
		if rep.Diameter != rep.TheoryDiam {
			b.Fatalf("diameter %d, theory %d", rep.Diameter, rep.TheoryDiam)
		}
	}
}

// --- E2: BW(Bn) (Theorem 2.20) ---

// mustPlanB unwraps BestPlan for the statically valid benchmark sizes.
func mustPlanB(b *testing.B, n int) *construct.Plan {
	b.Helper()
	p, err := construct.BestPlan(n)
	if err != nil {
		b.Fatalf("BestPlan(%d): %v", n, err)
	}
	return p
}

func BenchmarkBisectionBnExact(b *testing.B) {
	bt := topology.NewButterfly(4)
	for i := 0; i < b.N; i++ {
		if _, w := exact.MinBisection(bt.Graph); w != 4 {
			b.Fatalf("BW(B4) = %d", w)
		}
	}
}

func BenchmarkBisectionBnConstructed(b *testing.B) {
	// The headline series: best sub-n plan on a half-million-node
	// butterfly, verified virtually.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := mustPlanB(b, 1<<15)
		capacity, _ := p.EvaluateVirtual()
		if capacity >= 1<<15 {
			b.Fatalf("capacity %d did not beat folklore", capacity)
		}
	}
}

// BenchmarkBestPlan is the plan layer alone: the class search over every
// candidate j, then the winner's quota table. n = 2^20 is the size the
// serve-warm set-up fill asks for; 2^48 is the top of the plan range, where
// maxPlanJ caps the j sweep.
func BenchmarkBestPlan(b *testing.B) {
	for _, lg := range []int{20, 24, 30, 48} {
		b.Run(fmt.Sprintf("n=2^%d", lg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if p := mustPlanB(b, 1<<lg); p.Ratio >= 1 {
					b.Fatalf("ratio %v did not beat folklore", p.Ratio)
				}
			}
		})
	}
}

// BenchmarkButterflyBisectionReport is the whole bn bisection row past the
// heuristic budget — plan, then word-parallel virtual measurement — at the
// sizes the server and bwtable ask for.
func BenchmarkButterflyBisectionReport(b *testing.B) {
	for _, lg := range []int{17, 20, 22} {
		b.Run(fmt.Sprintf("n=2^%d", lg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := core.ButterflyBisection(1<<lg, core.BisectionBudget{})
				if err != nil {
					b.Fatal(err)
				}
				if r.Constructed >= 1<<lg {
					b.Fatalf("constructed %d did not beat folklore", r.Constructed)
				}
			}
		})
	}
}

func BenchmarkSubFolkloreSweep(b *testing.B) {
	dims := []int{6, 9, 12, 15, 18, 21, 24}
	for i := 0; i < b.N; i++ {
		plans, err := core.SubFolkloreSweep(dims)
		if err != nil {
			b.Fatal(err)
		}
		if plans[len(plans)-1].Ratio >= 1 {
			b.Fatalf("sweep did not go sub-folklore")
		}
	}
}

// --- E3: mesh of stars (Lemmas 2.17–2.19) ---

func BenchmarkMOSBisection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := mos.M2BisectionWidth(512)
		if r.Ratio <= mos.Limit {
			b.Fatalf("ratio %v at or below the limit", r.Ratio)
		}
	}
}

// --- E4: BW(Wn) = n (Lemma 3.2) ---

func BenchmarkBisectionWn(b *testing.B) {
	w := topology.NewWrappedButterfly(8)
	for i := 0; i < b.N; i++ {
		if _, width := exact.MinBisectionWithBound(w.Graph, 8); width != 8 {
			b.Fatalf("BW(W8) = %d", width)
		}
	}
}

func BenchmarkLemma31InputBisection(b *testing.B) {
	bt := topology.NewButterfly(4)
	for i := 0; i < b.N; i++ {
		if _, w := exact.MinSubsetBisection(bt.Graph, bt.InputNodes()); w != 4 {
			b.Fatalf("BW(B4,L0) = %d", w)
		}
	}
}

// --- E5: BW(CCCn) = n/2 (Lemma 3.3) ---

func BenchmarkBisectionCCC(b *testing.B) {
	c := topology.NewCCC(8)
	for i := 0; i < b.N; i++ {
		if _, width := exact.MinBisectionWithBound(c.Graph, 4); width != 4 {
			b.Fatalf("BW(CCC8) = %d", width)
		}
	}
}

// --- E6: §4.3 lower bounds (credit schemes) ---

func BenchmarkExpansionLowerWnEdge(b *testing.B) {
	w := topology.NewWrappedButterfly(256)
	set := expansion.WnEdgeWitness(w, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := expansion.WnEdgeCreditBound(w, set)
		if r.LowerBound <= 0 {
			b.Fatalf("degenerate bound")
		}
	}
}

func BenchmarkExpansionLowerBnNode(b *testing.B) {
	bt := topology.NewButterfly(256)
	set := expansion.BnNodeWitness(bt, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := expansion.BnNodeCreditBound(bt, set)
		if r.LowerBound <= 0 {
			b.Fatalf("degenerate bound")
		}
	}
}

// --- E7: §4.3 upper bounds (witness constructions) ---

func BenchmarkExpansionUpperWitnesses(b *testing.B) {
	w := topology.NewWrappedButterfly(256)
	bt := topology.NewButterfly(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cut.EdgeBoundary(w.Graph, expansion.WnEdgeWitness(w, 4)) != 64 {
			b.Fatalf("Wn edge witness boundary wrong")
		}
		if len(cut.NodeBoundary(bt.Graph, expansion.BnNodeWitness(bt, 4))) != 32 {
			b.Fatalf("Bn node witness boundary wrong")
		}
	}
}

func BenchmarkExpansionExact(b *testing.B) {
	w := topology.NewWrappedButterfly(8)
	for i := 0; i < b.N; i++ {
		res := exact.SolveEdgeExpansion(context.Background(), w.Graph, 4, exact.SolveOptions{Workers: 1})
		if res.Value <= 0 {
			b.Fatalf("EE = %d", res.Value)
		}
	}
}

// BenchmarkExpansionExactParallel{Edge,Node} measure the expansion engine
// on GOMAXPROCS workers on a W16 workload;
// BenchmarkExpansionExact above is the one-worker, one-job entry.
func BenchmarkExpansionExactParallelEdge(b *testing.B) {
	w := topology.NewWrappedButterfly(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := exact.SolveEdgeExpansion(context.Background(), w.Graph, 6, exact.SolveOptions{})
		if res.Value != 10 {
			b.Fatalf("EE(W16,6) = %d", res.Value)
		}
	}
}

func BenchmarkExpansionExactParallelNode(b *testing.B) {
	w := topology.NewWrappedButterfly(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := exact.SolveNodeExpansion(context.Background(), w.Graph, 6, exact.SolveOptions{})
		if res.Value != 9 {
			b.Fatalf("NE(W16,6) = %d", res.Value)
		}
	}
}

// BenchmarkExpansionExactHeavyPrefix measures the expansion engine on
// GOMAXPROCS workers on a skewed tree: NE(W32,8) = 12, seeded with its
// witness value, explores 10.6M nodes, 4.7M of them under one branch (node
// 0 in S, the next seven BFS nodes out; W32 is one node class, so the
// search is rooted at node 0), so its wall time shows how well idle
// workers are fed pieces of that branch. NE(W64,8) has the same shape at
// ten times the size (63M of 104M nodes).
func BenchmarkExpansionExactHeavyPrefix(b *testing.B) {
	w := topology.NewWrappedButterfly(32)
	opts := exact.SolveOptions{Bound: 12}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := exact.SolveNodeExpansion(context.Background(), w.Graph, 8, opts)
		if res.Value != 12 || !res.Exact {
			b.Fatalf("NE(W32,8) = %d (exact %v)", res.Value, res.Exact)
		}
	}
}

// BenchmarkExpansionExactBn measures the two Bn certificates of the
// repository benchmark's certify workload through core.ExpansionTable, with
// its options: EE(B16,k≤12), whose rows k = 4 and 12 certify 4 and 8, and
// NE(B32,k≤12), whose row k = 8 certifies 4. Bn declares ⌊log n/2⌋ + 1
// node classes (level i with level log n − i), so each search runs one
// rooted job per class.
func BenchmarkExpansionExactBn(b *testing.B) {
	for _, c := range []struct {
		name       string
		kind       core.ExpansionKind
		n, nodes   int
		dims       []int
		k, optimum int
	}{
		{"EE(B16,k<=12)", core.BnEdge, 16, 80, []int{1, 2, 3}, 12, 8},
		{"NE(B32,k<=12)", core.BnNode, 32, 192, []int{1, 2, 3, 4}, 8, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			opts := core.ExpansionTableOptions{ExactNodes: c.nodes, KMax: 12}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range core.ExpansionTable(c.kind, c.n, c.dims, opts) {
					if r.K == c.k && (r.Exact != c.optimum || !r.ExactComplete) {
						b.Fatalf("%s row k=%d: %d (complete %v), want %d", c.name, r.K, r.Exact, r.ExactComplete, c.optimum)
					}
				}
			}
		})
	}
}

// BenchmarkExpansionExactWn measures Lemma 4.1's d = 2 certificate,
// EE(Wn,12) = 16, through core.ExpansionTable: EE(W16,k≤12) with the
// options of the repository benchmark's certify workload, and
// EE(W64,k≤12). Wn is one node class, so each search, table steps
// included, is one job rooted at node 0 that decides the other nodes in
// maximum-adjacency order. BenchmarkExpansionExactHeavyPrefix, a node
// search in BFS order, is its control.
func BenchmarkExpansionExactWn(b *testing.B) {
	for _, c := range []struct {
		name     string
		n, nodes int
	}{
		{"EE(W16,k<=12)", 16, 32},
		{"EE(W64,k<=12)", 64, 192},
	} {
		b.Run(c.name, func(b *testing.B) {
			opts := core.ExpansionTableOptions{ExactNodes: c.nodes, KMax: 12}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range core.ExpansionTable(core.WnEdge, c.n, []int{1, 2}, opts) {
					if r.K == 12 && (r.Exact != 16 || !r.ExactComplete) {
						b.Fatalf("%s row k=12: %d (complete %v), want 16", c.name, r.Exact, r.ExactComplete)
					}
				}
			}
		})
	}
}

// BenchmarkExpansionSurvey measures the batched engine: one decision order
// per quantity, one worker pool and per-worker scratch reused across the
// whole k-sweep, each search rooted (Wn is one node class) and k = 4
// seeded by its witness.
func BenchmarkExpansionSurvey(b *testing.B) {
	w := topology.NewWrappedButterfly(8)
	ks := []int{2, 3, 4, 5, 6}
	witness := expansion.WnEdgeWitness(w, 1)
	seed := func(k int) []int {
		if k == len(witness) {
			return witness
		}
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := exact.ExpansionSurveyWithOptions(w.Graph, ks, 0,
			exact.SurveyOptions{EdgeSeed: seed})
		if res[2].EE != 8 {
			b.Fatalf("EE(W8,4) = %d", res[2].EE)
		}
	}
}

// --- E8: routing vs bisection bound (§1.2) ---

func BenchmarkRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := core.RoutingExperiment(32, int64(i), route.RandomDestinations, core.RoutingOptions{})
		if r.Stats.MinBound > 0 && r.Stats.MinRatio < 1 {
			b.Fatalf("steps below certified bound: %+v", r.Stats)
		}
	}
}

// BenchmarkRoutingManyParallel{B7,B9} measure multi-trial Monte-Carlo
// throughput of the worker-pool runner in routed packets per second.
func benchRoutingMany(b *testing.B, n, trials int) {
	bt := topology.NewButterfly(n)
	ref := mustPlanB(b, n).Build(bt)
	b.ReportAllocs()
	b.ResetTimer()
	var packets int64
	for i := 0; i < b.N; i++ {
		stats := route.SimulateMany(bt, ref, route.RandomDestinations,
			route.ManyOptions{Trials: trials, Seed: int64(i)})
		if stats.MinRatio < 1 {
			b.Fatalf("a trial beat its certified bound: %+v", stats)
		}
		packets += stats.TotalPackets
	}
	b.ReportMetric(float64(packets)/b.Elapsed().Seconds(), "packets/s")
}

func BenchmarkRoutingManyParallelB7(b *testing.B) { benchRoutingMany(b, 128, 32) }

func BenchmarkRoutingManyParallelB9(b *testing.B) { benchRoutingMany(b, 512, 16) }

// --- E9: Beneš looping algorithm (Lemma 2.5 substrate) ---

func BenchmarkBenesLooping(b *testing.B) {
	routedAll := true
	for i := 0; i < b.N; i++ {
		routed, total := core.BenesRearrangeabilityCheck(64, 8, int64(i))
		routedAll = routedAll && routed == total
	}
	if !routedAll {
		b.Fatalf("some permutation failed to route")
	}
}

// --- E10: compactness / amenability (Lemmas 2.8, 2.9, 2.15) ---

func BenchmarkCompactness(b *testing.B) {
	bt := topology.NewButterfly(4)
	var u []int
	for i := 1; i <= bt.Dim(); i++ {
		u = append(u, bt.LevelNodes(i)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The full Lemma 2.8 verification over all 4096 cuts of B4.
		ok := true
		side := make([]bool, bt.N())
		for mask := 0; mask < 1<<bt.N(); mask++ {
			for v := 0; v < bt.N(); v++ {
				side[v] = mask>>v&1 == 1
			}
			base := cut.New(bt.Graph, side).Capacity()
			work := append([]bool(nil), side...)
			for _, v := range u {
				work[v] = true
			}
			inS := cut.New(bt.Graph, work).Capacity()
			for _, v := range u {
				work[v] = false
			}
			inSbar := cut.New(bt.Graph, work).Capacity()
			if inS > base && inSbar > base {
				ok = false
			}
		}
		if !ok {
			b.Fatalf("Lemma 2.8 violated")
		}
	}
}

// --- E11: embedding properties (Lemmas 2.10, 2.11) ---

func BenchmarkEmbeddings(b *testing.B) {
	host := topology.NewButterfly(16)
	for i := 0; i < b.N; i++ {
		e := embed.BkIntoBn(host, 2, 1)
		if c, uniform := e.UniformCongestion(); !uniform || c != 2 {
			b.Fatalf("Lemma 2.10 congestion wrong")
		}
		e2 := embed.ButterflyIntoMOS(host, 4, 4)
		if c, uniform := e2.UniformCongestion(); !uniform || c != 2 {
			b.Fatalf("Lemma 2.11 congestion wrong")
		}
	}
}

// --- Ablations ---

// BenchmarkAblationExactSeeded vs BenchmarkAblationExactUnseeded measure
// what seeding the branch-and-bound with the constructed cut is worth.
func BenchmarkAblationExactSeeded(b *testing.B) {
	bt := topology.NewButterfly(8)
	for i := 0; i < b.N; i++ {
		if _, w := exact.MinBisectionWithBound(bt.Graph, 8); w != 8 {
			b.Fatalf("BW = %d", w)
		}
	}
}

func BenchmarkAblationExactUnseeded(b *testing.B) {
	bt := topology.NewButterfly(8)
	for i := 0; i < b.N; i++ {
		if _, w := exact.MinBisection(bt.Graph); w != 8 {
			b.Fatalf("BW = %d", w)
		}
	}
}

// BenchmarkAblationGridJ2 pins the folklore baseline (coarsest class grid)
// against BenchmarkBisectionBnConstructed's refined grid.
func BenchmarkAblationGridJ2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, ok := construct.PlanButterflyBisection(1<<15, 2)
		if !ok || p.Capacity != 1<<15 {
			b.Fatalf("folklore plan wrong")
		}
	}
}

// BenchmarkAblationHeuristicVsConstruction measures the FM search cost on a
// size where it merely re-finds the construction's value.
func BenchmarkAblationHeuristicVsConstruction(b *testing.B) {
	bt := topology.NewButterfly(64)
	best := mustPlanB(b, 64).Capacity
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := heuristic.BisectParallel(bt.Graph, heuristic.BisectOptions{Starts: 4, Seed: int64(i)})
		if h.Capacity() < best {
			b.Fatalf("heuristic %d beat the construction %d", h.Capacity(), best)
		}
	}
}

// --- E12: §1.6 related bounds ---

func BenchmarkVariantsSnirExact(b *testing.B) {
	o := variants.NewOmega(8)
	for i := 0; i < b.N; i++ {
		_, c := o.MinPortedBoundary(4)
		if !variants.SnirInequalityHolds(c, 4) {
			b.Fatalf("Snir inequality failed")
		}
	}
}

func BenchmarkVariantsHongKung(b *testing.B) {
	f := variants.NewFFT(16)
	set := expansion.BnNodeWitness(f.Base, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if holds, _ := f.VerifyHongKung(set); !holds {
			b.Fatalf("Hong–Kung bound failed")
		}
	}
}

// --- E13: directed (Kruskal–Snir) bisection ---

func BenchmarkDirectedBisection(b *testing.B) {
	bt := topology.NewButterfly(8)
	for i := 0; i < b.N; i++ {
		if _, w := bandwidth.MinDirectedBisection(bt); w != 4 {
			b.Fatalf("directed width %d", w)
		}
	}
}

// --- E14: Lemma 3.2 transmutation pipeline ---

func BenchmarkTransmutation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.TransmutationExperiment(16, 0)
		if err != nil || !res.InputBisected {
			b.Fatalf("pipeline failed: %v", err)
		}
	}
}

// --- E15: dissemination (§1.3) ---

func BenchmarkDissemination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.Dissemination(32)
		if err != nil || r.Rounds > r.Diameter {
			b.Fatalf("dissemination failed")
		}
	}
}

// --- E16: emulation (§1.5) ---

func BenchmarkEmulation(b *testing.B) {
	host := topology.NewButterfly(16)
	e := embed.BenesIntoButterfly(host)
	budget := emulation.SlowdownBudget(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := emulation.EmulateStep(e); res.HostSteps > budget {
			b.Fatalf("slowdown over budget")
		}
	}
}

// --- Max-flow substrate (used by E12) ---

func BenchmarkVertexSeparator(b *testing.B) {
	bt := topology.NewButterfly(16)
	for i := 0; i < b.N; i++ {
		sep := flow.VertexSeparator(bt.N(), bt.Neighbors, bt.InputNodes(), bt.OutputNodes())
		if len(sep) != 16 {
			b.Fatalf("separator size %d", len(sep))
		}
	}
}

// --- E17: VLSI layout (§1.1/§1.2) ---

func BenchmarkLayout(b *testing.B) {
	bt := topology.NewButterfly(256)
	for i := 0; i < b.N; i++ {
		l := layout.New(bt, layout.Packed)
		if err := l.Validate(); err != nil {
			b.Fatal(err)
		}
		if l.AreaRatio() > 2.6 {
			b.Fatalf("area ratio %v", l.AreaRatio())
		}
	}
}

// BenchmarkAblationExactParallel measures the bisection engine fanned out
// over GOMAXPROCS workers against BenchmarkAblationExactUnseeded's
// one-worker run on the same network.
func BenchmarkAblationExactParallel(b *testing.B) {
	bt := topology.NewButterfly(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := exact.SolveBisection(context.Background(), bt.Graph, exact.SolveOptions{}); res.Width != 8 {
			b.Fatalf("BW = %d", res.Width)
		}
	}
}

// BenchmarkAblationVirtualParallel measures the parallel virtual evaluator
// against the serial one inside BenchmarkBisectionBnConstructed. Since the
// word-parallel kernel landed this routes through 64-column masks, not
// per-column InA calls.
func BenchmarkAblationVirtualParallel(b *testing.B) {
	p := mustPlanB(b, 1<<15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		capacity, _, err := p.EvaluateVirtualParallelCtx(context.Background(), 0)
		if err != nil || capacity >= 1<<15 {
			b.Fatalf("capacity %d, err %v", capacity, err)
		}
	}
}

// BenchmarkVirtualWordSerial isolates the single-threaded word kernel on
// the headline n=2^15 plan — the direct ablation against the scalar
// BenchmarkBisectionBnConstructed loop.
func BenchmarkVirtualWordSerial(b *testing.B) {
	p := mustPlanB(b, 1<<15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		capacity, _, err := p.EvaluateVirtualParallelCtx(context.Background(), 1)
		if err != nil || capacity >= 1<<15 {
			b.Fatalf("capacity %d did not beat folklore (err %v)", capacity, err)
		}
	}
}

// BenchmarkVirtualWordMillion evaluates the full 2^20-column butterfly
// (21.9M virtual nodes) per iteration: the ROADMAP's million-node target.
func BenchmarkVirtualWordMillion(b *testing.B) {
	p := mustPlanB(b, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		capacity, _, err := p.EvaluateVirtualParallelCtx(context.Background(), 1)
		if err != nil || capacity >= 1<<20 {
			b.Fatalf("capacity %d did not beat folklore (err %v)", capacity, err)
		}
	}
}

// --- Serving: cold start vs persistent-store warm start ---

// benchServeQuery drives one request through a server's handler and
// checks the X-Cache source.
func benchServeQuery(b *testing.B, s *serve.Server, path, wantSource string) {
	b.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != wantSource {
		b.Fatalf("GET %s: X-Cache %q, want %q", path, got, wantSource)
	}
}

// benchServePath is the restart-to-first-response workload both serving
// benchmarks measure: a 2^15-column butterfly bisection row (524k virtual
// nodes), the headline constructed-series size.
const benchServePath = "/v1/bisection?network=bn&n=32768"

// BenchmarkServeColdStart: every iteration is a fresh daemon answering
// its first query — the full solve (plan construction + virtual
// evaluation + rendering), nothing cached anywhere.
func BenchmarkServeColdStart(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchServeQuery(b, serve.New(serve.Config{}), benchServePath, "miss")
	}
}

// BenchmarkServeWarmStart: every iteration is a fresh daemon over a
// filled persistent store answering the same first query from disk — the
// -store warm start. The acceptance target is ≥100× under ColdStart.
func BenchmarkServeWarmStart(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	// One solve seeds the store: the answer is written through to it.
	benchServeQuery(b, serve.New(serve.Config{Store: st}), benchServePath, "miss")
	if st.Len() != 1 {
		b.Fatalf("store holds %d results after the seeding solve, want 1", st.Len())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServeQuery(b, serve.New(serve.Config{Store: st}), benchServePath, "store-hit")
	}
}

// --- Port-level rearrangeability (Lemma 2.5, full form) ---

func BenchmarkPortRouting(b *testing.B) {
	bt := topology.NewButterfly(64)
	perm := make([]int, 64)
	for i := range perm {
		perm[i] = 63 - i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths, err := route.ButterflyPortPaths(bt, perm)
		if err != nil {
			b.Fatal(err)
		}
		if ok, _ := route.VerifyEdgeDisjoint(bt.Graph, paths); !ok {
			b.Fatalf("paths not edge-disjoint")
		}
	}
}
