package bandwidth

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

func TestColumnPrefixCutAchievesHalfN(t *testing.T) {
	// §1.2: "the cut in which S is the set of nodes whose column numbers
	// begin with 0 achieves this bound" — exactly n/2 directed edges.
	for _, n := range []int{4, 8, 16, 64} {
		b := topology.NewButterfly(n)
		side := ColumnPrefixCut(b)
		if !IsKSCut(b, side) {
			t.Errorf("B%d: column-prefix cut violates the KS constraint", n)
		}
		if got := DirectedCapacity(b, side); got != n/2 {
			t.Errorf("B%d: directed capacity %d, want %d", n, got, n/2)
		}
	}
}

func TestMinDirectedBisectionExact(t *testing.T) {
	// The exact directed bisection width equals n/2 (lower bound from the
	// bandwidth relation, upper bound from the column-prefix cut).
	for _, n := range []int{4, 8} {
		b := topology.NewButterfly(n)
		side, w := MinDirectedBisection(b)
		if w != n/2 {
			t.Errorf("B%d: directed width %d, want %d", n, w, n/2)
		}
		if !IsKSCut(b, side) {
			t.Errorf("B%d: optimal cut violates the constraint", n)
		}
		if DirectedCapacity(b, side) != w {
			t.Errorf("B%d: reported width does not match the cut", n)
		}
		if w < BandwidthLowerBound(n) {
			t.Errorf("B%d: width %d below the bandwidth relation %d", n, w, BandwidthLowerBound(n))
		}
	}
}

func TestDirectedCapacityIsAsymmetric(t *testing.T) {
	// Reversing a cut changes which directed edges count: a cut with all
	// inputs in S and all outputs in S̄ pays for forward edges only.
	b := topology.NewButterfly(4)
	// S = level 0 only: all 2n forward edges out of level 0 are cut.
	side := make([]bool, b.N())
	for _, v := range b.InputNodes() {
		side[v] = true
	}
	if got := DirectedCapacity(b, side); got != 8 {
		t.Errorf("level-0 cut: %d directed edges, want 2n = 8", got)
	}
	// Complement: S = everything but level 0: only the last level's
	// boundary... no forward edges leave S downward into level 0, so the
	// only S→S̄ edges would go from levels ≥1 into level 0 — none exist
	// (edges are directed downward). Capacity 0.
	comp := make([]bool, b.N())
	for v := range comp {
		comp[v] = !side[v]
	}
	if got := DirectedCapacity(b, comp); got != 0 {
		t.Errorf("complement cut: %d directed edges, want 0", got)
	}
}

func TestIsKSCut(t *testing.T) {
	b := topology.NewButterfly(4)
	all := make([]bool, b.N())
	for i := range all {
		all[i] = true
	}
	// All nodes in S: outputs in S̄ count 0 < 2.
	if IsKSCut(b, all) {
		t.Errorf("all-S should violate the output quota")
	}
	if !IsKSCut(b, ColumnPrefixCut(b)) {
		t.Errorf("column cut should satisfy the constraint")
	}
}

func TestRandomKSCutsNeverBeatExact(t *testing.T) {
	b := topology.NewButterfly(8)
	_, w := MinDirectedBisection(b)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		side := make([]bool, b.N())
		for v := range side {
			side[v] = rng.Intn(2) == 0
		}
		if !IsKSCut(b, side) {
			continue
		}
		if c := DirectedCapacity(b, side); c < w {
			t.Fatalf("random KS cut %d beats exact %d", c, w)
		}
	}
}

func TestDirectedAtMostUndirected(t *testing.T) {
	// For any cut, the directed capacity is at most the undirected one.
	b := topology.NewButterfly(8)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		side := make([]bool, b.N())
		for v := range side {
			side[v] = rng.Intn(2) == 0
		}
		undirected := 0
		for _, e := range b.Edges() {
			if side[e.U] != side[e.V] {
				undirected++
			}
		}
		if d := DirectedCapacity(b, side); d > undirected {
			t.Fatalf("directed %d exceeds undirected %d", d, undirected)
		}
	}
}

func TestWrapPanics(t *testing.T) {
	w := topology.NewWrappedButterfly(4)
	defer func() {
		if recover() == nil {
			t.Errorf("Wn did not panic")
		}
	}()
	DirectedCapacity(w, make([]bool, w.N()))
}

// IsKSCut reports whether the side assignment satisfies the Kruskal–Snir
// constraint: |S ∩ inputs| ≥ n/2 and |S̄ ∩ outputs| ≥ n/2.
func IsKSCut(b *topology.Butterfly, side []bool) bool {
	inS, outSbar := 0, 0
	for _, v := range b.InputNodes() {
		if side[v] {
			inS++
		}
	}
	for _, v := range b.OutputNodes() {
		if !side[v] {
			outSbar++
		}
	}
	half := b.Inputs() / 2
	return inS >= half && outSbar >= half
}

// BandwidthLowerBound returns the §1.2 relation: the network bandwidth 2n
// cannot exceed 4× the directed bisection width, so the width is at least
// ⌈2n/4⌉ = n/2.
func BandwidthLowerBound(n int) int { return n / 2 }
