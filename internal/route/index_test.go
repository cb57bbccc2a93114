package route

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/topology"
)

// TestSimulateManyConcurrentShapes runs SimulateMany across ten shapes
// concurrently, so pooled states re-bind from one shape to another under
// the race detector. The assertions are per-shape determinism: same seed,
// same aggregate, whichever state ran it.
func TestSimulateManyConcurrentShapes(t *testing.T) {
	shapes := []int{2, 4, 8, 16, 32}

	// Reference aggregates, computed serially.
	want := make([]TrialStats, len(shapes))
	for i, s := range shapes {
		want[i] = runShape(s)
	}

	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan string, rounds*len(shapes))
	for r := 0; r < rounds; r++ {
		for i, s := range shapes {
			wg.Add(1)
			go func(i, s int) {
				defer wg.Done()
				got := runShape(s)
				if got.Trials != want[i].Trials || got.MeanSteps != want[i].MeanSteps ||
					got.TotalPackets != want[i].TotalPackets || got.MaxQueuePeak != want[i].MaxQueuePeak {
					errs <- "shape diverged under concurrency"
				}
			}(i, s)
		}
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

func runShape(n int) TrialStats {
	b := topology.NewButterfly(n)
	return SimulateMany(b, nil, RandomDestinations, ManyOptions{Trials: 3, Workers: 2, Seed: 7})
}

// buildDirIndexSorted is the original index build — one sort.Slice per
// node into fresh arrays — kept as the oracle for the in-place build.
func buildDirIndexSorted(b *topology.Butterfly) *dirIndex {
	g := b.Graph
	n := g.N()
	ix := &dirIndex{
		nodes: n,
		start: make([]int32, n+1),
		to:    make([]int32, 0, 2*g.M()),
	}
	buf := make([]int32, 0, 8)
	for v := 0; v < n; v++ {
		ix.start[v] = int32(len(ix.to))
		buf = append(buf[:0], g.Neighbors(v)...)
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		for i, w := range buf {
			if i > 0 && w == buf[i-1] {
				continue // parallel edge: one queue per node pair
			}
			ix.to = append(ix.to, w)
		}
	}
	ix.start[n] = int32(len(ix.to))
	return ix
}

// indexShapes lists B2…B4096 and then B2…B1024 again, so the second
// builds reuse arrays grown for larger graphs.
func indexShapes() []*topology.Butterfly {
	var out []*topology.Butterfly
	for n := 2; n <= 4096; n *= 2 {
		out = append(out, topology.NewButterfly(n))
	}
	for n := 2; n <= 1024; n *= 2 {
		out = append(out, topology.NewButterfly(n))
	}
	return out
}

// TestDirIndexBuildMatchesSorted pins the in-place build to the sort.Slice
// oracle on every shape, through one reused index: equal ids mean equal
// move order, so every simulated schedule is unchanged.
func TestDirIndexBuildMatchesSorted(t *testing.T) {
	var ix dirIndex
	for _, b := range indexShapes() {
		ix.build(b)
		want := buildDirIndexSorted(b)
		if ix.nodes != want.nodes || !slices.Equal(ix.start, want.start) || !slices.Equal(ix.to, want.to) {
			t.Fatalf("n=%d: in-place build differs from the sorted oracle", b.Inputs())
		}
	}
}

// runBound runs one scenario trial on st exactly as SimulateScenario does,
// but on a caller-held state instead of a pooled one.
func runBound(st *simState, b *topology.Butterfly, kind TrialKind, seed int64, f FaultOptions, sw Switching) SimResult {
	st.bind(b)
	st.setCut(columnCut(b))
	st.setScenario(f, sw)
	st.compileKind(kind, seed)
	st.seedFaults(seed)
	return st.run(defaultMaxSteps(b))
}

// TestRebindShrinkingShapes binds one state to B1024 and then to smaller
// shapes, so every array it reuses holds stale entries past the new
// shape's end. Each trial must still equal the reference engine's.
func TestRebindShrinkingShapes(t *testing.T) {
	st := new(simState)
	f := FaultOptions{DropProb: 0.2, MaxRetransmits: 3, DeadLinkProb: 0.1}
	for _, b := range []*topology.Butterfly{
		topology.NewButterfly(1024),
		topology.NewButterfly(8),
		topology.NewButterfly(16),
		topology.NewButterfly(8),
	} {
		kind := RandomDestinations
		for _, sw := range []Switching{StoreAndForward, CutThrough} {
			got := runBound(st, b, kind, 3, f, sw)
			want, err := SimulateScenarioReference(b, columnCut(b), kind, 3, f, sw)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("n=%d %s: flat %+v, reference %+v", b.Inputs(), sw.Slug(), got, want)
			}
		}
	}
}

// TestRebindAllocations checks that binding a warmed state allocates
// nothing: to the same shape on a fresh butterfly (no rebuild) and
// alternately to two shapes (an in-place rebuild on every bind).
func TestRebindAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	st := new(simState)
	st.bind(topology.NewButterfly(64))
	same := topology.NewButterfly(64)
	if allocs := testing.AllocsPerRun(20, func() { st.bind(same) }); allocs != 0 {
		t.Errorf("same-shape rebind allocates %.1f objects, want 0", allocs)
	}
	other := topology.NewButterfly(32)
	if allocs := testing.AllocsPerRun(20, func() {
		st.bind(other)
		st.bind(same)
	}); allocs != 0 {
		t.Errorf("alternating B64/B32 rebinds allocate %.1f objects, want 0", allocs)
	}
}

// BenchmarkDirIndexBuild times one B4096 index build, the largest shape
// /v1/routing serves: in place into warmed arrays vs the sort.Slice
// oracle into fresh ones.
func BenchmarkDirIndexBuild(b *testing.B) {
	bt := topology.NewButterfly(4096)
	b.Run("inplace", func(b *testing.B) {
		var ix dirIndex
		ix.build(bt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.build(bt)
		}
	})
	b.Run("sorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buildDirIndexSorted(bt)
		}
	})
}
