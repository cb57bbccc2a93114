package expansion

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cut"
	"repro/internal/exact"
	"repro/internal/topology"
)

func TestWnEdgeWitnessBoundary(t *testing.T) {
	// Lemma 4.1: boundary of a d-dimensional sub-butterfly is exactly
	// 4·2^d = (4+o(1))k/log k.
	for _, tc := range []struct{ n, d int }{{16, 1}, {16, 2}, {64, 2}, {64, 3}, {64, 4}, {256, 4}} {
		w := topology.NewWrappedButterfly(tc.n)
		set := WnEdgeWitness(w, tc.d)
		if len(set) != WitnessSize(tc.d) {
			t.Fatalf("W%d d=%d: size %d, want %d", tc.n, tc.d, len(set), WitnessSize(tc.d))
		}
		if got, want := cut.EdgeBoundary(w.Graph, set), 4<<tc.d; got != want {
			t.Errorf("W%d d=%d: boundary %d, want %d", tc.n, tc.d, got, want)
		}
	}
}

func TestWnNodeWitnessBoundary(t *testing.T) {
	// Lemma 4.4: |N(A)| = 3·2^(d+1) = (3+o(1))k/log k.
	for _, tc := range []struct{ n, d int }{{16, 1}, {64, 2}, {64, 3}, {256, 4}} {
		w := topology.NewWrappedButterfly(tc.n)
		set := WnNodeWitness(w, tc.d)
		if len(set) != 2*WitnessSize(tc.d) {
			t.Fatalf("W%d d=%d: size %d, want %d", tc.n, tc.d, len(set), 2*WitnessSize(tc.d))
		}
		if got, want := len(cut.NodeBoundary(w.Graph, set)), 3<<(tc.d+1); got != want {
			t.Errorf("W%d d=%d: |N(A)| = %d, want %d", tc.n, tc.d, got, want)
		}
	}
}

func TestBnEdgeWitnessBoundary(t *testing.T) {
	// Lemma 4.7: boundary 2·2^d = (2+o(1))k/log k.
	for _, tc := range []struct{ n, d int }{{8, 1}, {8, 2}, {64, 3}, {256, 5}} {
		b := topology.NewButterfly(tc.n)
		set := BnEdgeWitness(b, tc.d)
		if len(set) != WitnessSize(tc.d) {
			t.Fatalf("B%d d=%d: size %d", tc.n, tc.d, len(set))
		}
		if got, want := cut.EdgeBoundary(b.Graph, set), 2<<tc.d; got != want {
			t.Errorf("B%d d=%d: boundary %d, want %d", tc.n, tc.d, got, want)
		}
	}
}

func TestBnNodeWitnessBoundary(t *testing.T) {
	// Lemma 4.10: |N(A)| = 2^(d+1) = (1+o(1))k/log k.
	for _, tc := range []struct{ n, d int }{{8, 1}, {64, 2}, {64, 4}, {256, 5}} {
		b := topology.NewButterfly(tc.n)
		set := BnNodeWitness(b, tc.d)
		if len(set) != 2*WitnessSize(tc.d) {
			t.Fatalf("B%d d=%d: size %d", tc.n, tc.d, len(set))
		}
		if got, want := len(cut.NodeBoundary(b.Graph, set)), 2<<tc.d; got != want {
			t.Errorf("B%d d=%d: |N(A)| = %d, want %d", tc.n, tc.d, got, want)
		}
	}
}

func TestWitnessValidation(t *testing.T) {
	w := topology.NewWrappedButterfly(16)
	b := topology.NewButterfly(16)
	for name, f := range map[string]func(){
		"WnEdge too big": func() { WnEdgeWitness(w, 3) },
		"WnEdge on Bn":   func() { WnEdgeWitness(b, 1) },
		"WnNode too big": func() { WnNodeWitness(w, 2) },
		"BnEdge on Wn":   func() { BnEdgeWitness(w, 1) },
		"BnEdge too big": func() { BnEdgeWitness(b, 4) },
		"BnNode too big": func() { BnNodeWitness(b, 4) },
	} {
		f := f
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestWitnessesAreExactMinimizersOnSmallNetworks(t *testing.T) {
	// On W16 at k = WitnessSize(1) = 4, the exact minimum should not beat
	// the witness by more than the o(1) slack — in fact the witness pattern
	// (a sub-butterfly) is the exact minimizer shape the lemmas predict.
	w := topology.NewWrappedButterfly(16)
	k := WitnessSize(1)
	ee := exact.SolveEdgeExpansion(context.Background(), w.Graph, k, exact.SolveOptions{Workers: 1}).Value
	witness := cut.EdgeBoundary(w.Graph, WnEdgeWitness(w, 1))
	if ee > witness {
		t.Errorf("exact EE %d exceeds witness %d", ee, witness)
	}
	if witness > 2*ee {
		t.Errorf("witness %d is more than twice the optimum %d", witness, ee)
	}
}

func TestCreditConservation(t *testing.T) {
	// Every source distributes exactly one unit: retained + leaked = k.
	w := topology.NewWrappedButterfly(32)
	b := topology.NewButterfly(32)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		k := 2 + rng.Intn(20)
		aW := randomSet(w.N(), k, rng)
		aB := randomSet(b.N(), k, rng)
		for name, r := range map[string]CreditResult{
			"WnEdge": WnEdgeCreditBound(w, aW),
			"WnNode": WnNodeCreditBound(w, aW),
			"BnEdge": BnEdgeCreditBound(b, aB),
			"BnNode": BnNodeCreditBound(b, aB),
		} {
			if got := r.CutRetained + r.LeakedToLeaves; got != float64(k) {
				t.Errorf("%s: retained %g + leaked %g ≠ k = %d",
					name, r.CutRetained, r.LeakedToLeaves, k)
			}
		}
	}
}

func TestCreditPerItemCaps(t *testing.T) {
	// Lemmas 4.2/4.5/4.8/4.11: no cut edge (or N(A) node) retains more than
	// the analytical cap — verified on random and adversarially clustered
	// sets.
	w := topology.NewWrappedButterfly(64)
	b := topology.NewButterfly(64)
	rng := rand.New(rand.NewSource(11))
	sets := [][]int{
		randomSet(w.N(), 10, rng),
		randomSet(w.N(), 40, rng),
		WnEdgeWitness(w, 2), // clustered set
	}
	for _, a := range sets {
		for name, r := range map[string]CreditResult{
			"WnEdge": WnEdgeCreditBound(w, a),
			"WnNode": WnNodeCreditBound(w, a),
		} {
			if r.MaxPerItem > r.PerItemCap+1e-12 {
				t.Errorf("%s: per-item retention %g exceeds cap %g (k=%d)",
					name, r.MaxPerItem, r.PerItemCap, r.K)
			}
		}
	}
	setsB := [][]int{
		randomSet(b.N(), 10, rng),
		BnEdgeWitness(b, 2),
	}
	for _, a := range setsB {
		for name, r := range map[string]CreditResult{
			"BnEdge": BnEdgeCreditBound(b, a),
			"BnNode": BnNodeCreditBound(b, a),
		} {
			if r.MaxPerItem > r.PerItemCap+1e-12 {
				t.Errorf("%s: per-item retention %g exceeds cap %g (k=%d)",
					name, r.MaxPerItem, r.PerItemCap, r.K)
			}
		}
	}
}

func TestCreditBoundsAreSound(t *testing.T) {
	// The certified lower bound never exceeds the true boundary.
	w := topology.NewWrappedButterfly(32)
	b := topology.NewButterfly(32)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		k := 2 + rng.Intn(30)
		aW := randomSet(w.N(), k, rng)
		if r := WnEdgeCreditBound(w, aW); r.LowerBound > cut.EdgeBoundary(w.Graph, aW) {
			t.Errorf("WnEdge bound %d exceeds true boundary %d", r.LowerBound, cut.EdgeBoundary(w.Graph, aW))
		}
		if r := WnNodeCreditBound(w, aW); r.LowerBound > len(cut.NodeBoundary(w.Graph, aW)) {
			t.Errorf("WnNode bound %d exceeds |N(A)| %d", r.LowerBound, len(cut.NodeBoundary(w.Graph, aW)))
		}
		aB := randomSet(b.N(), k, rng)
		if r := BnEdgeCreditBound(b, aB); r.LowerBound > cut.EdgeBoundary(b.Graph, aB) {
			t.Errorf("BnEdge bound %d exceeds true boundary %d", r.LowerBound, cut.EdgeBoundary(b.Graph, aB))
		}
		if r := BnNodeCreditBound(b, aB); r.LowerBound > len(cut.NodeBoundary(b.Graph, aB)) {
			t.Errorf("BnNode bound %d exceeds |N(A)| %d", r.LowerBound, len(cut.NodeBoundary(b.Graph, aB)))
		}
	}
}

func TestCreditRetentionFloor(t *testing.T) {
	// Lemma 4.2's equation (1): retained credit ≥ k(1−k/n), for k = o(n).
	w := topology.NewWrappedButterfly(64)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		k := 2 + rng.Intn(16)
		a := randomSet(w.N(), k, rng)
		r := WnEdgeCreditBound(w, a)
		floor := float64(k) * (1 - float64(k)/64)
		if r.CutRetained < floor-1e-9 {
			t.Errorf("retained %g below the lemma floor %g (k=%d)", r.CutRetained, floor, k)
		}
	}
}

func TestCreditBoundTightOnWitness(t *testing.T) {
	// On the Lemma 4.1 witness — the near-minimizer — the certified bound
	// should be within a factor ~2 of the true boundary, showing the
	// 4k/log k shape from both sides.
	w := topology.NewWrappedButterfly(256)
	set := WnEdgeWitness(w, 4) // k = 80
	r := WnEdgeCreditBound(w, set)
	actual := cut.EdgeBoundary(w.Graph, set)
	if r.LowerBound > actual {
		t.Fatalf("bound %d exceeds actual %d", r.LowerBound, actual)
	}
	if float64(r.LowerBound) < float64(actual)/2.5 {
		t.Errorf("bound %d too loose against actual %d", r.LowerBound, actual)
	}
}

func TestCreditBoundsAgainstExactOptimum(t *testing.T) {
	// Certified lower bound ≤ exact EE/NE at the same k (on W8, where the
	// exact solver is fast), for the witness-like minimizing sets.
	w := topology.NewWrappedButterfly(8)
	for k := 2; k <= 8; k++ {
		res := exact.SolveEdgeExpansion(context.Background(), w.Graph, k, exact.SolveOptions{Workers: 1})
		set, ee := res.Set, res.Value
		r := WnEdgeCreditBound(w, set)
		if r.LowerBound > ee {
			t.Errorf("k=%d: certified %d exceeds exact EE %d", k, r.LowerBound, ee)
		}
		res = exact.SolveNodeExpansion(context.Background(), w.Graph, k, exact.SolveOptions{Workers: 1})
		setN, ne := res.Set, res.Value
		rn := WnNodeCreditBound(w, setN)
		if rn.LowerBound > ne {
			t.Errorf("k=%d: certified %d exceeds exact NE %d", k, rn.LowerBound, ne)
		}
	}
}

func TestCreditValidation(t *testing.T) {
	w := topology.NewWrappedButterfly(16)
	b := topology.NewButterfly(16)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("WnEdge on Bn", func() { WnEdgeCreditBound(b, []int{0, 1}) })
	mustPanic("BnEdge on Wn", func() { BnEdgeCreditBound(w, []int{0, 1}) })
	mustPanic("WnNode k=1", func() { WnNodeCreditBound(w, []int{0}) })
	mustPanic("BnNode k=1", func() { BnNodeCreditBound(b, []int{0}) })
}

func randomSet(n, k int, rng *rand.Rand) []int {
	return rng.Perm(n)[:k]
}
