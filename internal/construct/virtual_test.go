package construct

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestEvaluateVirtualParallelCtxMatchesSerial(t *testing.T) {
	p := mustBestPlan(t, 1<<10)
	wantCap, wantA := p.EvaluateVirtual()
	for _, workers := range []int{1, 3, 0} {
		gotCap, gotA, err := p.EvaluateVirtualParallelCtx(context.Background(), workers)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if gotCap != wantCap || gotA != wantA {
			t.Fatalf("workers=%d: got (%d,%d), want (%d,%d)", workers, gotCap, gotA, wantCap, wantA)
		}
	}
}

func TestEvaluateVirtualParallelCtxCancelled(t *testing.T) {
	// A 2^20-column plan streams ~44M InA pairs; a pre-cancelled context
	// must abort it promptly with an error wrapping the cause. Plans
	// narrower than one word (8, 16, 32 columns) take the scalar path and
	// must fail the same way, directly and through VirtualBisectionCapacity.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{8, 16, 32, 1 << 20} {
		p := mustBestPlan(t, n)
		start := time.Now()
		_, _, err := p.EvaluateVirtualParallelCtx(ctx, 0)
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("n=%d: cancelled evaluation took %v", n, took)
		}
		_, verr := p.VirtualBisectionCapacity(ctx, 0)
		for _, err := range []error{err, verr} {
			if err == nil {
				t.Fatalf("n=%d: cancelled evaluation returned nil error", n)
			}
			if !strings.Contains(err.Error(), "interrupted") || !errors.Is(err, context.Canceled) {
				t.Fatalf("n=%d: error %q does not name the interruption and wrap its cause", n, err)
			}
		}
	}
}

func TestVirtualBisectionCapacityBalanced(t *testing.T) {
	p := mustBestPlan(t, 1<<12)
	capacity, err := p.VirtualBisectionCapacity(context.Background(), 0)
	if err != nil {
		t.Fatalf("balanced plan rejected: %v", err)
	}
	if capacity != p.Capacity {
		t.Fatalf("measured capacity %d != predicted %d", capacity, p.Capacity)
	}
}

func TestVirtualBisectionCapacityUnbalancedPlanErrors(t *testing.T) {
	// Regression for the old panic("core: virtual plan is not balanced"):
	// corrupt one component quota so |A| misses N/2 by one node, and
	// check the error names n, |A|, and N/2 instead of panicking.
	p := mustBestPlan(t, 1<<12)
	corrupted := false
	for i := range p.quotas {
		if p.quotas[i].KA > 0 {
			p.quotas[i].KA--
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no component quota to corrupt")
	}
	_, err := p.VirtualBisectionCapacity(context.Background(), 0)
	if err == nil {
		t.Fatal("unbalanced plan accepted")
	}
	msg := err.Error()
	for _, want := range []string{"n=4096", "|A|=", "N/2="} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}
