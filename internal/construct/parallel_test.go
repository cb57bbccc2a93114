package construct

import (
	"context"
	"testing"
)

// evaluateParallel runs EvaluateVirtualParallelCtx under a context that is
// never cancelled, so any error fails the test.
func evaluateParallel(t *testing.T, p *Plan, workers int) (capacity, sizeA int) {
	t.Helper()
	capacity, sizeA, err := p.EvaluateVirtualParallelCtx(context.Background(), workers)
	if err != nil {
		t.Fatalf("n=%d workers=%d: %v", p.N, workers, err)
	}
	return capacity, sizeA
}

func TestEvaluateVirtualParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{64, 1024, 1 << 14} {
		p := mustBestPlan(t, n)
		sc, ss := p.EvaluateVirtual()
		for _, workers := range []int{1, 2, 3, 7, 16} {
			pc, ps := evaluateParallel(t, p, workers)
			if pc != sc || ps != ss {
				t.Errorf("n=%d workers=%d: parallel (%d,%d) ≠ serial (%d,%d)",
					n, workers, pc, ps, sc, ss)
			}
		}
		// Default worker count.
		pc, ps := evaluateParallel(t, p, 0)
		if pc != sc || ps != ss {
			t.Errorf("n=%d default workers: mismatch", n)
		}
	}
}

func TestEvaluateVirtualParallelMoreWorkersThanColumns(t *testing.T) {
	p := mustBestPlan(t, 16)
	sc, ss := p.EvaluateVirtual()
	pc, ps := evaluateParallel(t, p, 64)
	if pc != sc || ps != ss {
		t.Errorf("oversubscribed workers gave (%d,%d), want (%d,%d)", pc, ps, sc, ss)
	}
}

func TestLargeScaleVirtualParallel(t *testing.T) {
	// The headline artifact at scale: a million-column butterfly
	// (N = 22M nodes, 42M edges) evaluated virtually in parallel — the
	// constructed bisection is exactly balanced and strictly below the
	// folklore n.
	if testing.Short() {
		t.Skip("large-scale virtual evaluation")
	}
	n := 1 << 20
	p := mustBestPlan(t, n)
	capacity, sizeA := evaluateParallel(t, p, 0)
	if capacity != p.Capacity {
		t.Errorf("measured %d, predicted %d", capacity, p.Capacity)
	}
	if sizeA != n*(p.Dim+1)/2 {
		t.Errorf("|A| = %d, want exact half", sizeA)
	}
	if capacity >= n {
		t.Errorf("capacity %d did not beat folklore %d", capacity, n)
	}
}
