package construct

import (
	"testing"
	"testing/quick"

	"repro/internal/cut"
	"repro/internal/topology"
)

// TestPlanPropertyPredictionMatchesMeasurement is the package's central
// property: for every valid (n, j) drawn at random, the plan's predicted
// capacity equals the materialized cut's measured capacity and the cut is
// an exact bisection.
func TestPlanPropertyPredictionMatchesMeasurement(t *testing.T) {
	f := func(dRaw, ljRaw uint8) bool {
		d := 4 + int(dRaw)%7   // log n in 4..10
		lj := 1 + int(ljRaw)%3 // log j in 1..3
		n := 1 << d
		j := 1 << lj
		p, ok := PlanButterflyBisection(n, j)
		if !ok {
			return true // invalid combination, nothing to check
		}
		b := topology.NewButterfly(n)
		c := p.Build(b)
		return c.Imbalance() == 0 && c.Capacity() == p.Capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPlanPropertyVirtualAgreesWithBuild checks InA-based streaming
// evaluation against materialization for random valid parameters.
func TestPlanPropertyVirtualAgreesWithBuild(t *testing.T) {
	f := func(dRaw, ljRaw uint8) bool {
		d := 4 + int(dRaw)%5
		lj := 1 + int(ljRaw)%2
		n := 1 << d
		p, ok := PlanButterflyBisection(n, 1<<lj)
		if !ok {
			return true
		}
		b := topology.NewButterfly(n)
		c := p.Build(b)
		vcap, vsize := p.EvaluateVirtual()
		return vcap == c.Capacity() && vsize == c.SizeS()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestColumnBisectionInvariantUnderXor verifies that the folklore cut's
// capacity is invariant under the Lemma 2.2 column-xor automorphisms that
// fix bit 1 — a symmetry property of the cut family.
func TestColumnBisectionInvariantUnderXor(t *testing.T) {
	b := topology.NewButterfly(16)
	base := ColumnBisection(b).Capacity()
	for mask := 0; mask < 8; mask++ { // masks with bit 1 (MSB) clear
		perm := b.ColumnXorAutomorphism(mask)
		side := make([]bool, b.N())
		orig := ColumnBisection(b)
		for v := 0; v < b.N(); v++ {
			side[perm[v]] = orig.InS(v)
		}
		if got := cut.New(b.Graph, side).Capacity(); got != base {
			t.Errorf("mask %d: capacity %d, want %d", mask, got, base)
		}
	}
}

// TestAnnealCannotBeatConstruction adds the second adversary from
// DESIGN.md's ablation list: simulated annealing also fails to beat the
// plan.
func TestAnnealCannotBeatConstruction(t *testing.T) {
	b := topology.NewButterfly(64)
	best := mustBestPlan(t, 64).Capacity
	a := Anneal(b.Graph, AnnealOptions{Seed: 7, Sweeps: 24})
	if a.Capacity() < best-8 {
		t.Errorf("annealing %d far below construction %d", a.Capacity(), best)
	}
}

// TestPlanGroupEdgesDivisibility: every plan's capacity is a multiple of
// its group size 2n/j², because all cut edges come in component groups.
func TestPlanGroupEdgesDivisibility(t *testing.T) {
	for d := 4; d <= 14; d++ {
		n := 1 << d
		for j := 2; j*j <= n; j *= 2 {
			p, ok := PlanButterflyBisection(n, j)
			if !ok {
				continue
			}
			if p.Capacity%p.GroupEdges != 0 {
				t.Errorf("n=%d j=%d: capacity %d not divisible by group size %d",
					n, j, p.Capacity, p.GroupEdges)
			}
			if p.Capacity != p.Groups*p.GroupEdges {
				t.Errorf("n=%d j=%d: capacity accounting inconsistent", n, j)
			}
		}
	}
}
