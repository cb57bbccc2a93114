package construct

import (
	"context"
	"math/rand"
	"testing"
)

// mustBestPlan unwraps BestPlan for the many tests that use statically
// valid sizes.
func mustBestPlan(tb testing.TB, n int) *Plan {
	tb.Helper()
	p, err := BestPlan(n)
	if err != nil {
		tb.Fatalf("BestPlan(%d): %v", n, err)
	}
	return p
}

// TestBestPlanRejectsInvalidSizes pins the satellite fix: sizes with no
// valid class grid return an error instead of panicking.
func TestBestPlanRejectsInvalidSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 6, 100} {
		if p, err := BestPlan(n); err == nil {
			t.Errorf("BestPlan(%d) = %+v, want error", n, p)
		}
	}
	if _, err := BestPlan(4); err != nil {
		t.Errorf("BestPlan(4): %v", err)
	}
}

// TestWordEvaluatorMatchesScalarGrid is the central word-kernel property:
// for every valid (n, j) plan with n ≤ 2^12, the word evaluator's capacity
// and |A| are identical to the scalar oracle EvaluateVirtual's.
func TestWordEvaluatorMatchesScalarGrid(t *testing.T) {
	for d := 2; d <= 12; d++ {
		n := 1 << d
		for j := 2; j*j <= n; j *= 2 {
			p, ok := PlanButterflyBisection(n, j)
			if !ok {
				continue
			}
			wantCap, wantA := p.EvaluateVirtual()
			gotCap, gotA := p.EvaluateVirtualWords()
			if gotCap != wantCap || gotA != wantA {
				t.Errorf("n=%d j=%d: words (%d,%d) ≠ scalar (%d,%d)",
					n, j, gotCap, gotA, wantCap, wantA)
			}
		}
	}
}

// TestWordEvaluatorMatchesScalarBestPlans covers the plans the experiments
// actually run, including sizes where j ≥ 64 exercises the linear-suffix
// window path.
func TestWordEvaluatorMatchesScalarBestPlans(t *testing.T) {
	for _, d := range []int{6, 8, 10, 12, 13, 14} {
		p := mustBestPlan(t, 1<<d)
		wantCap, wantA := p.EvaluateVirtual()
		gotCap, gotA := p.EvaluateVirtualWords()
		if gotCap != wantCap || gotA != wantA {
			t.Errorf("n=2^%d (j=%d): words (%d,%d) ≠ scalar (%d,%d)",
				d, p.J, gotCap, gotA, wantCap, wantA)
		}
	}
}

// TestWordEvaluatorRandomQuotasFuzz randomizes the per-component quotas —
// including unbalanced, non-bisection assignments the planner would never
// emit — and checks the word kernel still agrees with the scalar oracle,
// serial and parallel (the parallel runs put the block workers under the
// race detector).
func TestWordEvaluatorRandomQuotasFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		d := 6 + rng.Intn(6) // log n in 6..11
		n := 1 << d
		var js []int
		for j := 2; j*j <= n; j *= 2 {
			js = append(js, j)
		}
		j := js[rng.Intn(len(js))]
		p, ok := PlanButterflyBisection(n, j)
		if !ok {
			continue
		}
		compSize := p.CompSize()
		for i := range p.quotas {
			p.quotas[i] = compQuota{
				KA:     rng.Intn(compSize + 1),
				TopInA: rng.Intn(2) == 0,
			}
		}
		wantCap, wantA := p.EvaluateVirtual()
		gotCap, gotA := p.EvaluateVirtualWords()
		if gotCap != wantCap || gotA != wantA {
			t.Fatalf("trial %d (n=%d j=%d): words (%d,%d) ≠ scalar (%d,%d)",
				trial, n, j, gotCap, gotA, wantCap, wantA)
		}
		parCap, parA, err := p.EvaluateVirtualParallelCtx(context.Background(), 4)
		if err != nil {
			t.Fatalf("trial %d: parallel error %v", trial, err)
		}
		if parCap != wantCap || parA != wantA {
			t.Fatalf("trial %d (n=%d j=%d): parallel words (%d,%d) ≠ scalar (%d,%d)",
				trial, n, j, parCap, parA, wantCap, wantA)
		}
	}
}

// TestWordEvaluatorWorkerCounts sweeps worker counts over a plan whose
// block count does not divide them evenly, pinning the balanced-range
// partitioning.
func TestWordEvaluatorWorkerCounts(t *testing.T) {
	p := mustBestPlan(t, 1<<12)
	wantCap, wantA := p.EvaluateVirtual()
	for _, workers := range []int{1, 2, 3, 5, 7, 16, 1024} {
		gotCap, gotA, err := p.EvaluateVirtualParallelCtx(context.Background(), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if gotCap != wantCap || gotA != wantA {
			t.Errorf("workers=%d: (%d,%d) ≠ (%d,%d)", workers, gotCap, gotA, wantCap, wantA)
		}
	}
}

// TestScalarFallbackBelowWordWidth: plans narrower than one word must keep
// working through the scalar path inside the parallel evaluator, at every
// worker count and through VirtualBisectionCapacity.
func TestScalarFallbackBelowWordWidth(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		p := mustBestPlan(t, n)
		if p.wordEligible() {
			t.Fatalf("n=%d unexpectedly word-eligible", n)
		}
		wantCap, wantA := p.EvaluateVirtual()
		for _, workers := range []int{1, 3, 0} {
			gotCap, gotA, err := p.EvaluateVirtualParallelCtx(context.Background(), workers)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if gotCap != wantCap || gotA != wantA {
				t.Errorf("n=%d workers=%d: scalar-fallback (%d,%d) ≠ oracle (%d,%d)",
					n, workers, gotCap, gotA, wantCap, wantA)
			}
		}
		capacity, err := p.VirtualBisectionCapacity(context.Background(), 0)
		if err != nil {
			t.Fatalf("n=%d: VirtualBisectionCapacity: %v", n, err)
		}
		if capacity != wantCap {
			t.Errorf("n=%d: VirtualBisectionCapacity %d ≠ oracle %d", n, capacity, wantCap)
		}
	}
}

func TestXorShuffle(t *testing.T) {
	for b := 0; b < 6; b++ {
		for _, m := range []uint64{0, ^uint64(0), 0xdeadbeefcafebabe, 1, 1 << 63} {
			got := xorShuffle(m, b)
			var want uint64
			for k := 0; k < 64; k++ {
				if m>>uint(k)&1 == 1 {
					want |= 1 << uint(k^(1<<uint(b)))
				}
			}
			if got != want {
				t.Fatalf("xorShuffle(%#x, %d) = %#x, want %#x", m, b, got, want)
			}
		}
	}
}

func TestWindowMask(t *testing.T) {
	cases := map[int]uint64{-3: 0, 0: 0, 1: 1, 7: 0x7f, 64: ^uint64(0), 90: ^uint64(0)}
	for c, want := range cases {
		if got := windowMask(c); got != want {
			t.Errorf("windowMask(%d) = %#x, want %#x", c, got, want)
		}
	}
}
