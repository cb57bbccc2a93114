package route

import (
	"math/rand"
	"testing"

	"repro/internal/cut"
	"repro/internal/topology"
)

func TestRoutePermutationIdentity(t *testing.T) {
	be := topology.NewBenes(8)
	perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
	paths, err := RoutePermutation(be, perm)
	if err != nil {
		t.Fatal(err)
	}
	checkBenesPaths(t, be, perm, paths)
}

func TestRoutePermutationReversal(t *testing.T) {
	be := topology.NewBenes(16)
	perm := make([]int, 16)
	for i := range perm {
		perm[i] = 15 - i
	}
	paths, err := RoutePermutation(be, perm)
	if err != nil {
		t.Fatal(err)
	}
	checkBenesPaths(t, be, perm, paths)
}

func TestRoutePermutationAllPermsN4(t *testing.T) {
	// Rearrangeability (§1.5): every one of the 24 permutations of a
	// 4-input Beneš routes edge-disjointly.
	be := topology.NewBenes(4)
	perms := allPermutations(4)
	if len(perms) != 24 {
		t.Fatalf("generated %d permutations", len(perms))
	}
	for _, perm := range perms {
		paths, err := RoutePermutation(be, perm)
		if err != nil {
			t.Fatalf("perm %v: %v", perm, err)
		}
		checkBenesPaths(t, be, perm, paths)
	}
}

func TestRoutePermutationRandomLarge(t *testing.T) {
	// 1000 random permutations across sizes, all edge-disjoint — the
	// E9 experiment's core claim.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 1000; trial++ {
		n := 1 << (1 + rng.Intn(6)) // 2..64
		be := topology.NewBenes(n)
		perm := rng.Perm(n)
		paths, err := RoutePermutation(be, perm)
		if err != nil {
			t.Fatalf("n=%d perm=%v: %v", n, perm, err)
		}
		checkBenesPaths(t, be, perm, paths)
	}
}

func TestRoutePermutationBig(t *testing.T) {
	be := topology.NewBenes(256)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(256)
		paths, err := RoutePermutation(be, perm)
		if err != nil {
			t.Fatal(err)
		}
		checkBenesPaths(t, be, perm, paths)
	}
}

func TestRoutePermutationRejectsBadInput(t *testing.T) {
	be := topology.NewBenes(4)
	if _, err := RoutePermutation(be, []int{0, 1, 2}); err == nil {
		t.Errorf("short permutation accepted")
	}
	if _, err := RoutePermutation(be, []int{0, 1, 2, 2}); err == nil {
		t.Errorf("repeated value accepted")
	}
	if _, err := RoutePermutation(be, []int{0, 1, 2, 4}); err == nil {
		t.Errorf("out-of-range value accepted")
	}
}

func checkBenesPaths(t *testing.T, be *topology.Benes, perm []int, paths [][]int) {
	t.Helper()
	n := be.Inputs()
	if len(paths) != n {
		t.Fatalf("%d paths for %d inputs", len(paths), n)
	}
	for w, p := range paths {
		if len(p) != be.Levels() {
			t.Fatalf("path %d has %d nodes, want %d", w, len(p), be.Levels())
		}
		if p[0] != be.Node(w, 0) {
			t.Fatalf("path %d starts at the wrong input", w)
		}
		if p[len(p)-1] != be.Node(perm[w], 2*be.Dim()) {
			t.Fatalf("path %d ends at output %d, want %d", w, be.Column(p[len(p)-1]), perm[w])
		}
		for i := 0; i+1 < len(p); i++ {
			if !be.HasEdge(p[i], p[i+1]) {
				t.Fatalf("path %d hop %d is not an edge", w, i)
			}
		}
	}
	if ok, reused := VerifyEdgeDisjoint(be.Graph, paths); !ok {
		t.Fatalf("paths reuse edge %v", reused)
	}
}

func allPermutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var gen func(k int)
	gen = func(k int) {
		if k == n {
			cp := make([]int, n)
			copy(cp, perm)
			out = append(out, cp)
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			gen(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	gen(0)
	return out
}

func TestVerifyEdgeDisjointDetectsReuse(t *testing.T) {
	b := topology.NewButterfly(4)
	p := b.MonotonePath(0, 3)
	if ok, _ := VerifyEdgeDisjoint(b.Graph, [][]int{p, p}); ok {
		t.Errorf("duplicate path not detected")
	}
	if ok, _ := VerifyEdgeDisjoint(b.Graph, [][]int{p}); !ok {
		t.Errorf("single path flagged")
	}
}

func TestSimulatePermutationIdentityIsFast(t *testing.T) {
	// The identity permutation has congestion 1 on every edge: it must
	// finish in exactly log n steps (pipeline of length log n, one packet
	// per path, no queueing).
	b := topology.NewButterfly(16)
	perm := make([]int, 16)
	for i := range perm {
		perm[i] = i
	}
	res, err := SimulatePermutation(b, nil, perm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != b.Dim() {
		t.Errorf("identity routed in %d steps, want %d", res.Steps, b.Dim())
	}
	if res.MaxQueue != 1 {
		t.Errorf("identity saw queue %d, want 1", res.MaxQueue)
	}
}

func TestSimulatePermutationDelivery(t *testing.T) {
	b := topology.NewButterfly(32)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(32)
		res, err := SimulatePermutation(b, nil, perm)
		if err != nil {
			t.Fatal(err)
		}
		if res.Packets != 32 {
			t.Errorf("routed %d packets", res.Packets)
		}
		if res.Steps < b.Dim() {
			t.Errorf("finished faster than the path length: %d < %d", res.Steps, b.Dim())
		}
	}
}

func TestSimulateRandomDestinationsBisectionBound(t *testing.T) {
	// §1.2: with each node sending to a random destination, about N/4
	// messages cross any bisection in each direction, so time ≥ N/(4·BW).
	// The simulator must respect its own certified congestion bound.
	b := topology.NewButterfly(16)
	ref := columnCut(b)
	res := SimulateRandomDestinations(b, ref, 99)
	if res.Steps < res.CongestionBound {
		t.Errorf("steps %d below the certified bound %d", res.Steps, res.CongestionBound)
	}
	// Crossings concentrate near half the packets (destination on the
	// other side with probability ~1/2 under a column-split cut).
	if res.CutCrossings < res.Packets/4 || res.CutCrossings > 3*res.Packets/4 {
		t.Errorf("crossings %d out of line for %d packets", res.CutCrossings, res.Packets)
	}
}

func TestSimulateDeterministicWithSeed(t *testing.T) {
	b := topology.NewButterfly(8)
	ref := columnCut(b)
	a := SimulateRandomDestinations(b, ref, 7)
	c := SimulateRandomDestinations(b, ref, 7)
	if a != c {
		t.Errorf("same seed gave different results: %+v vs %+v", a, c)
	}
}

func TestCompressPath(t *testing.T) {
	got := compressPath([]int{1, 1, 2, 2, 2, 3, 1})
	want := []int{1, 2, 3, 1}
	if len(got) != len(want) {
		t.Fatalf("compressed to %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("compressed to %v, want %v", got, want)
		}
	}
}

func columnCut(b *topology.Butterfly) *cut.Cut {
	side := make([]bool, b.N())
	for v := 0; v < b.N(); v++ {
		side[v] = b.Column(v) < b.Inputs()/2
	}
	return cut.New(b.Graph, side)
}
