package construct

import (
	"testing"

	"repro/internal/heuristic"
	"repro/internal/topology"
)

func TestColumnBisection(t *testing.T) {
	// Folklore: capacity exactly n, exact bisection (§1.4).
	for _, n := range []int{4, 8, 16, 32} {
		b := topology.NewButterfly(n)
		c := ColumnBisection(b)
		if !c.IsBisection() {
			t.Errorf("B%d: column cut is not a bisection", n)
		}
		if got := c.Capacity(); got != n {
			t.Errorf("B%d: column cut capacity %d, want %d", n, got, n)
		}
		w := topology.NewWrappedButterfly(n)
		cw := ColumnBisection(w)
		if !cw.IsBisection() || cw.Capacity() != n {
			t.Errorf("W%d: column cut capacity %d, want %d", n, cw.Capacity(), n)
		}
	}
}

func TestCCCDimensionCut(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		c := topology.NewCCC(n)
		bis := CCCDimensionCut(c)
		if !bis.IsBisection() {
			t.Errorf("CCC%d: not a bisection", n)
		}
		if got := bis.Capacity(); got != n/2 {
			t.Errorf("CCC%d: capacity %d, want %d", n, got, n/2)
		}
	}
}

func TestPlanMatchesMaterializedCut(t *testing.T) {
	// The predicted capacity and exact balance must match the real cut for
	// every valid (n, j).
	for _, n := range []int{16, 64, 256, 1024} {
		b := topology.NewButterfly(n)
		for j := 2; j*j <= n; j *= 2 {
			p, ok := PlanButterflyBisection(n, j)
			if !ok {
				continue
			}
			c := p.Build(b)
			if !c.IsBisection() {
				t.Errorf("n=%d j=%d: not a bisection (%d/%d)", n, j, c.SizeS(), c.SizeSbar())
			}
			if c.Imbalance() != 0 {
				t.Errorf("n=%d j=%d: imbalance %d, want exact bisection", n, j, c.Imbalance())
			}
			if got := c.Capacity(); got != p.Capacity {
				t.Errorf("n=%d j=%d: measured capacity %d, predicted %d", n, j, got, p.Capacity)
			}
		}
	}
}

func TestVirtualMatchesMaterialized(t *testing.T) {
	for _, n := range []int{64, 256} {
		b := topology.NewButterfly(n)
		p := mustBestPlan(t, n)
		c := p.Build(b)
		vcap, vsize := p.EvaluateVirtual()
		if vcap != c.Capacity() {
			t.Errorf("n=%d: virtual capacity %d, materialized %d", n, vcap, c.Capacity())
		}
		if vsize != c.SizeS() {
			t.Errorf("n=%d: virtual |A| %d, materialized %d", n, vsize, c.SizeS())
		}
	}
}

func TestFolkloreRecoveredAtJ2(t *testing.T) {
	// j = 2 with (a,b) = (1,1) reproduces the folklore column-cut capacity.
	p, ok := PlanButterflyBisection(64, 2)
	if !ok {
		t.Fatalf("plan failed")
	}
	if p.Capacity != 64 {
		t.Errorf("j=2 capacity %d, want n = 64", p.Capacity)
	}
}

func TestSubFolkloreBeatsN(t *testing.T) {
	// The headline: for large n the best plan's capacity is strictly below
	// n, refuting the folklore BW(Bn) = n. At n = 2^15 the ratio should be
	// within ~15% of 2(√2−1) ≈ 0.828.
	cases := []struct {
		n        int
		maxRatio float64
	}{
		{1 << 12, 1.0}, // first sub-n sizes
		{1 << 15, 0.95},
		{1 << 25, 0.92},
	}
	for _, tc := range cases {
		p := mustBestPlan(t, tc.n)
		if p.Ratio >= tc.maxRatio {
			t.Errorf("n=2^%d: best ratio %.4f, want < %.2f (plan j=%d a=%d b=%d)",
				p.Dim, p.Ratio, tc.maxRatio, p.J, p.A, p.B)
		}
		if p.Ratio <= TheoreticalRatio {
			t.Errorf("n=2^%d: ratio %.4f at or below the theoretical limit %.4f — impossible",
				p.Dim, p.Ratio, TheoreticalRatio)
		}
	}
}

func TestSubFolkloreVirtualBalanceLarge(t *testing.T) {
	// Stream-verify an actual sub-n bisection on a large virtual butterfly.
	n := 1 << 15
	p := mustBestPlan(t, n)
	capacity, sizeA := p.EvaluateVirtual()
	if capacity != p.Capacity {
		t.Errorf("virtual capacity %d, predicted %d", capacity, p.Capacity)
	}
	N := n * (p.Dim + 1)
	if sizeA != N/2 {
		t.Errorf("|A| = %d, want exact half %d", sizeA, N/2)
	}
	if capacity >= n {
		t.Errorf("capacity %d did not beat folklore n = %d", capacity, n)
	}
}

func TestHeuristicCannotBeatConstruction(t *testing.T) {
	// On a size where the heuristic is strong (B64), FM multi-start must
	// not find a bisection cheaper than the best plan (which here is the
	// folklore n, since 64 columns are too few for the sub-n effect).
	b := topology.NewButterfly(64)
	p := mustBestPlan(t, 64)
	h := heuristic.BisectParallel(b.Graph, heuristic.BisectOptions{Starts: 12, Seed: 3})
	if h.Capacity() < p.Capacity-8 {
		t.Errorf("heuristic %d is far below construction %d: construction is not near-optimal",
			h.Capacity(), p.Capacity)
	}
}

func TestRatioMonotoneImprovement(t *testing.T) {
	// As n grows the best achievable ratio must not get worse.
	prev := 2.0
	for d := 6; d <= 20; d += 2 {
		p := mustBestPlan(t, 1<<d)
		if p.Ratio > prev+1e-9 {
			t.Errorf("ratio worsened at n=2^%d: %.4f after %.4f", d, p.Ratio, prev)
		}
		prev = p.Ratio
	}
}

func TestLemma216Route(t *testing.T) {
	// The paper's own chain: with BW(MOS_{2,2},M2) = 2 the j = 2 bound is
	// 2·2/4 + 4/2 = 3 (worse than folklore!), and beating 1.0 needs j ≥ 8
	// with log n ≥ j³+2j−1 = 527 — far beyond materializable sizes. This
	// is DESIGN.md §2's substitution rationale, pinned as a test.
	if got := Lemma216Ratio(2, 2); got != 3.0 {
		t.Errorf("j=2 ratio %v, want 3.0", got)
	}
	if got := Lemma216MinLogN(2); got != 11 {
		t.Errorf("j=2 min log n %d, want 11", got)
	}
	if got := Lemma216MinLogN(4); got != 71 {
		t.Errorf("j=4 min log n %d, want 71", got)
	}
	// With the true M2 capacities the lemma bound crosses below 1.0 at
	// some j (capacity ratio → √2−1, so bound → 2(√2−1) + 4/j): j = 8
	// gives 2·(28/64) + 0.5 = 1.375, j = 16 gives 2·(110/256) + 0.25 ≈
	// 1.109, j = 32 gives ≈ 0.961 < 1 — at log n ≥ 32831.
	if got := Lemma216Ratio(32, 428); got >= 1.0 {
		t.Errorf("j=32 lemma ratio %v, want < 1", got)
	}
	if got := Lemma216Ratio(16, 110); got < 1.0 {
		t.Errorf("j=16 lemma ratio %v, want ≥ 1", got)
	}
}

func TestPlanValidation(t *testing.T) {
	if _, ok := PlanButterflyBisection(16, 8); ok {
		t.Errorf("j²>n should be rejected")
	}
	if _, ok := PlanButterflyBisection(15, 2); ok {
		t.Errorf("non-power-of-two n should be rejected")
	}
	if _, ok := PlanButterflyBisection(64, 3); ok {
		t.Errorf("non-power-of-two j should be rejected")
	}
	p, _ := PlanButterflyBisection(16, 2)
	defer func() {
		if recover() == nil {
			t.Errorf("mismatched Build did not panic")
		}
	}()
	p.Build(topology.NewButterfly(32))
}

// Lemma216Ratio returns the capacity/n bound the paper's own Lemma 2.16
// route guarantees with class grid j: 2·BW(MOS_{j,j},M2)/j² + 4/j, where
// the M2-bisection capacity is supplied by the caller (package mos computes
// it; construct does not import mos to keep the dependency one-way).
func Lemma216Ratio(j, mosCapacity int) float64 {
	return 2*float64(mosCapacity)/float64(j*j) + 4/float64(j)
}

// Lemma216MinLogN returns the smallest log n at which Lemma 2.16's
// balancing precondition j³ + 2j − 1 ≤ log n holds — the reason the
// paper's route needs astronomically large butterflies before its bound
// beats the folklore n (j = 4 already demands log n ≥ 71), and the reason
// this reproduction balances the same cut directly on Bn instead (see
// DESIGN.md §2).
func Lemma216MinLogN(j int) int { return j*j*j + 2*j - 1 }
