package exact

import (
	"context"
	"sync"
	"testing"

	"repro/internal/cut"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/topology"
)

// runAllShards runs every shard of (g, spec) through the shard API and
// returns the final incumbent.
func runAllShards(t *testing.T, g *graph.Graph, spec ExpansionShardSpec, batch int) (int, []int) {
	t.Helper()
	count := ExpansionShardCount(g, spec)
	if count < 1 {
		t.Fatalf("ExpansionShardCount = %d, want ≥ 1", count)
	}
	si := NewShardIncumbent(g, spec, nil)
	for lo := 0; lo < count; lo += batch {
		hi := lo + batch
		if hi > count {
			hi = count
		}
		ids := make([]int, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ids = append(ids, id)
		}
		out := SearchExpansionShards(g, spec, ids, 2, si, nil)
		if !out.Complete {
			t.Fatalf("shards %v incomplete without cancellation", ids)
		}
	}
	return si.Best()
}

// The union of all shards must certify exactly what one local solve
// certifies — same value, and a witness achieving it.
func TestShardUnionMatchesParallelEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    int
		edge bool
		root int
	}{
		{"EE-B8-k4", 4, true, -1},
		{"EE-B8-k7", 7, true, -1},
		{"NE-B8-k5", 5, false, -1},
		{"EE-B8-k6-rooted", 6, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := topology.NewButterfly(8).Graph
			spec := ExpansionShardSpec{K: tc.k, Edge: tc.edge, Root: tc.root}
			val, set := runAllShards(t, g, spec, 3)

			opts := SolveOptions{Workers: 2, Containing: tc.root >= 0, Root: tc.root}
			want := minNE(g, tc.k, opts)
			if tc.edge {
				want = minEE(g, tc.k, opts)
			}
			if val != want {
				t.Fatalf("shard union found %d, engine found %d", val, want)
			}
			if len(set) != tc.k {
				t.Fatalf("witness has %d nodes, want %d", len(set), tc.k)
			}
			if tc.root >= 0 {
				found := false
				for _, v := range set {
					if v == tc.root {
						found = true
					}
				}
				if !found {
					t.Fatalf("witness %v misses forced root %d", set, tc.root)
				}
			}
			var got int
			if tc.edge {
				got = cut.EdgeBoundary(g, set)
			} else {
				got = len(cut.NodeBoundary(g, set))
			}
			if got != val {
				t.Fatalf("witness %v achieves %d, incumbent claims %d", set, got, val)
			}
		})
	}
}

// A tight bound offered from outside before the search starts must not
// change the certified optimum — remote pruning is sound.
func TestShardSearchWithOfferedBound(t *testing.T) {
	g := topology.NewWrappedButterfly(8).Graph
	spec := ExpansionShardSpec{K: 6, Edge: true, Root: -1}

	ref := SolveEdgeExpansion(context.Background(), g, 6, SolveOptions{Workers: 2})
	wantSet, want := ref.Set, ref.Value

	si := NewShardIncumbent(g, spec, nil)
	// Seed the exact optimum with its witness, as a remote peer would.
	if !si.Offer(want, wantSet) {
		t.Fatalf("Offer(%d) rejected against fresh incumbent", want)
	}
	count := ExpansionShardCount(g, spec)
	ids := make([]int, count)
	for i := range ids {
		ids[i] = i
	}
	out := SearchExpansionShards(g, spec, ids, 2, si, nil)
	if !out.Complete {
		t.Fatal("search incomplete without cancellation")
	}
	val, set := si.Best()
	if val != want {
		t.Fatalf("seeded search ended at %d, want %d", val, want)
	}
	if got := cut.EdgeBoundary(g, set); got != want {
		t.Fatalf("final witness achieves %d, want %d", got, want)
	}
	if out.Explored >= 0 && out.Pruned < 0 {
		t.Fatalf("telemetry went negative: %+v", out)
	}
}

// witnessesByValue enumerates the k-sets of g (those containing root when
// root ≥ 0) and returns one witness for every achievable boundary value.
func witnessesByValue(g *graph.Graph, k int, edge bool, root int) map[int][]int {
	out := make(map[int][]int)
	set := make([]int, 0, k)
	var gen func(next int)
	gen = func(next int) {
		if len(set) == k {
			if root < 0 || contains(set, root) {
				if v := boundary(g, set, edge); out[v] == nil {
					out[v] = append([]int(nil), set...)
				}
			}
			return
		}
		for v := next; v < g.N(); v++ {
			set = append(set, v)
			gen(v + 1)
			set = set[:len(set)-1]
		}
	}
	gen(0)
	return out
}

// Offer must be monotone: stale and duplicate values never loosen the
// incumbent, improvements always tighten it, concurrently.
func TestShardIncumbentOfferMonotone(t *testing.T) {
	g := topology.NewButterfly(4).Graph
	si := NewShardIncumbent(g, ExpansionShardSpec{K: 3, Edge: true, Root: -1}, nil)
	witnesses := witnessesByValue(g, 3, true, -1)
	var values []int
	low := 1 << 30
	for v := range witnesses {
		values = append(values, v)
		low = min(low, v)
	}
	if len(values) < 3 {
		t.Fatalf("only %d distinct 3-set boundaries on B4", len(values))
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := values[(seed+i*7)%len(values)] // replayed out of order
				si.Offer(v, witnesses[v])
			}
		}(w)
	}
	wg.Wait()
	val, set := si.Best()
	if val != low {
		t.Fatalf("incumbent = %d after replayed offers, want %d", val, low)
	}
	if got := cut.EdgeBoundary(g, set); got != low {
		t.Fatalf("witness %v achieves %d, not the best offer %d", set, got, low)
	}
	if si.Offer(low, witnesses[low]) {
		t.Fatal("Offer accepted a non-improving duplicate")
	}
}

// A peer's offer is adopted only with a witness achieving it: repeated
// nodes, out-of-range ids, a missing root or an understated value are
// rejected and counted, and never move the bound, so a lying offer cannot
// make a complete search certify a value below the optimum.
func TestShardIncumbentRejectsBogusOffers(t *testing.T) {
	rejected := obs.Default.Counter("exact.offers_rejected")
	w16 := topology.NewWrappedButterfly(16).Graph
	genuine := make([]int, 12)
	for i := range genuine {
		genuine[i] = i
	}
	for _, edge := range []bool{false, true} {
		si := NewShardIncumbent(w16, ExpansionShardSpec{K: 12, Edge: edge, Root: 0}, nil)
		start, _ := si.Best()
		val := boundary(w16, genuine, edge)
		outOfRange := append(append([]int(nil), genuine[:11]...), w16.N())
		negative := append([]int(nil), genuine...)
		negative[1] = -1
		noRoot := make([]int, 12)
		for i := range noRoot {
			noRoot[i] = i + 1
		}
		before := rejected.Value()
		for _, bogus := range []struct {
			val int
			set []int
		}{
			{4, make([]int, 12)},                  // node 0 twelve times
			{4, outOfRange},                       // id ≥ N
			{4, negative},                         // id < 0
			{val, genuine[:11]},                   // eleven nodes
			{boundary(w16, noRoot, edge), noRoot}, // root missing
			{val - 1, genuine},                    // understated value
		} {
			if si.Offer(bogus.val, bogus.set) {
				t.Fatalf("edge=%v: Offer(%d, %v) accepted", edge, bogus.val, bogus.set)
			}
		}
		if got := rejected.Value() - before; got != 6 {
			t.Fatalf("edge=%v: %d rejections counted, want 6", edge, got)
		}
		if best, set := si.Best(); best != start || set != nil {
			t.Fatalf("edge=%v: bogus offers moved the incumbent to (%d, %v)", edge, best, set)
		}
		if !si.Offer(val, genuine) {
			t.Fatalf("edge=%v: genuine witness of value %d rejected", edge, val)
		}
	}

	// End to end: a lying offer before the shards run must not become the
	// certified value.
	w8 := topology.NewWrappedButterfly(8).Graph
	spec := ExpansionShardSpec{K: 6, Edge: false, Root: 0}
	si := NewShardIncumbent(w8, spec, nil)
	si.Offer(1, make([]int, 6))
	want := minNE(w8, 6, rootedAt(0, serial))
	ids := make([]int, ExpansionShardCount(w8, spec))
	for i := range ids {
		ids[i] = i
	}
	if out := SearchExpansionShards(w8, spec, ids, 2, si, nil); !out.Complete {
		t.Fatal("search incomplete without cancellation")
	}
	if val, set := si.Best(); val != want || len(cut.NodeBoundary(w8, set)) != want {
		t.Fatalf("certified NE = %d with witness %v, want %d", val, set, want)
	}
}

// Cancellation mid-batch must surface as Complete=false, never as a
// silently partial "certificate".
func TestShardSearchCancellation(t *testing.T) {
	g := topology.NewWrappedButterfly(8).Graph
	spec := ExpansionShardSpec{K: 8, Edge: true, Root: -1}
	si := NewShardIncumbent(g, spec, nil)
	mon := solve.Start(solve.Options{})
	defer mon.Close()
	mon.Stop()

	count := ExpansionShardCount(g, spec)
	ids := make([]int, count)
	for i := range ids {
		ids[i] = i
	}
	out := SearchExpansionShards(g, spec, ids, 2, si, mon)
	if out.Complete {
		t.Fatal("stopped search reported Complete=true")
	}
}

// Shard ids outside the enumeration mean the parties disagree about the
// search geometry; that must fail loudly.
func TestShardSearchRejectsBadIDs(t *testing.T) {
	g := topology.NewButterfly(4).Graph
	spec := ExpansionShardSpec{K: 3, Edge: true, Root: -1}
	si := NewShardIncumbent(g, spec, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range shard id did not panic")
		}
	}()
	SearchExpansionShards(g, spec, []int{ExpansionShardCount(g, spec)}, 1, si, nil)
}

// The local-improvement hook must fire with private witness copies and
// never echo offered bounds.
func TestShardIncumbentOnImprove(t *testing.T) {
	g := topology.NewButterfly(8).Graph
	spec := ExpansionShardSpec{K: 4, Edge: true, Root: -1}

	var mu sync.Mutex
	var gossip [][]int
	si := NewShardIncumbent(g, spec, func(val int, set []int) {
		mu.Lock()
		defer mu.Unlock()
		gossip = append(gossip, append([]int{val}, set...))
	})
	// An offered witness tightens the bound without echoing.
	witnesses := witnessesByValue(g, 4, true, -1)
	loose := 0
	for v := range witnesses {
		loose = max(loose, v)
	}
	if !si.Offer(loose, witnesses[loose]) {
		t.Fatalf("fresh incumbent rejected a genuine witness of value %d", loose)
	}
	if len(gossip) != 0 {
		t.Fatal("Offer echoed through the onImprove hook")
	}

	count := ExpansionShardCount(g, spec)
	ids := make([]int, count)
	for i := range ids {
		ids[i] = i
	}
	SearchExpansionShards(g, spec, ids, 2, si, nil)

	mu.Lock()
	defer mu.Unlock()
	if len(gossip) == 0 {
		t.Fatal("no improvements gossiped from the search")
	}
	last := gossip[len(gossip)-1]
	val, _ := si.Best()
	if last[0] != val {
		t.Fatalf("last gossiped value %d != final incumbent %d", last[0], val)
	}
}
