package mos

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cut"
	"repro/internal/topology"
)

func TestFKnownValues(t *testing.T) {
	cases := []struct{ x, y, want float64 }{
		{1, 1, 1},       // 1+1−min(1,2) = 1
		{0.5, 0.5, 0.5}, // 1−min(1,0.5) = 0.5
		{1, 0, 1},       // 1−0
		{0.5, 1, 0.5},   // 1.5−1
	}
	for _, c := range cases {
		if got := F(c.x, c.y); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("F(%g,%g) = %g, want %g", c.x, c.y, got, c.want)
		}
	}
	r := math.Sqrt(0.5)
	if got := F(r, r); math.Abs(got-Limit) > 1e-12 {
		t.Errorf("F(√½,√½) = %g, want √2−1 = %g", got, Limit)
	}
}

func TestLemma218Minimum(t *testing.T) {
	// f ≥ √2−1 everywhere on the domain D (Lemma 2.18), checked on a grid
	// and with random probes.
	for i := 0; i <= 200; i++ {
		for j := 0; j <= 200; j++ {
			x := float64(i) / 200
			y := float64(j) / 200
			if !InDomain(x, y) {
				continue
			}
			if F(x, y) < Limit-1e-12 {
				t.Fatalf("F(%g,%g) = %g below the proven minimum", x, y, F(x, y))
			}
		}
	}
	f := func(a, b uint16) bool {
		x := float64(a) / 65535
		y := float64(b) / 65535
		if !InDomain(x, y) {
			return true
		}
		return F(x, y) >= Limit-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSideCostAgainstBruteForceMiddles(t *testing.T) {
	// For fixed (a,b,t), SideCost must equal the true optimum over all
	// placements of t middles; verified by enumerating middle subsets.
	for _, jk := range [][2]int{{2, 2}, {2, 3}, {3, 3}} {
		j, k := jk[0], jk[1]
		m := topology.NewMeshOfStars(j, k)
		mids := m.M2Nodes()
		for a := 0; a <= j; a++ {
			for b := 0; b <= k; b++ {
				for t0 := 0; t0 <= j*k; t0++ {
					want := 1 << 30
					for mask := 0; mask < 1<<len(mids); mask++ {
						if popcount(mask) != t0 {
							continue
						}
						side := make([]bool, m.N())
						for aa := 0; aa < a; aa++ {
							side[m.M1Node(aa)] = true
						}
						for bb := 0; bb < b; bb++ {
							side[m.M3Node(bb)] = true
						}
						for i, v := range mids {
							if mask>>i&1 == 1 {
								side[v] = true
							}
						}
						if c := cut.New(m.Graph, side).Capacity(); c < want {
							want = c
						}
					}
					if got := SideCost(j, k, a, b, t0); got != want {
						t.Fatalf("SideCost(%d,%d,%d,%d,%d) = %d, brute force %d",
							j, k, a, b, t0, got, want)
					}
				}
			}
		}
	}
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func TestM2BisectionWidthSmall(t *testing.T) {
	// j=1: one middle node, bisection puts it alone on one side; both its
	// edges may avoid the cut only if M1 and M3 join it... M2 = {single
	// node}, |A∩M2| must be 0 or 1 with difference ≤1 — any split works,
	// cheapest is everything on one side: capacity 0.
	if got := M2BisectionWidth(1).Capacity; got != 0 {
		t.Errorf("BW(MOS1,1,M2) = %d, want 0", got)
	}
	// j=2 (computed by hand from the cost formula): 2.
	if got := M2BisectionWidth(2).Capacity; got != 2 {
		t.Errorf("BW(MOS2,2,M2) = %d, want 2", got)
	}
}

func TestM2BisectionWidthAgainstFullEnumeration(t *testing.T) {
	// Enumerate every cut (all side assignments of M1 and M3, all middle
	// subsets that bisect M2) for j = 2 and 3.
	for _, j := range []int{2, 3} {
		m := topology.NewMeshOfStars(j, j)
		mids := m.M2Nodes()
		m2 := j * j
		want := 1 << 30
		for aMask := 0; aMask < 1<<j; aMask++ {
			for bMask := 0; bMask < 1<<j; bMask++ {
				for mMask := 0; mMask < 1<<m2; mMask++ {
					tc := popcount(mMask)
					if d := 2*tc - m2; d < -1 || d > 1 {
						continue
					}
					side := make([]bool, m.N())
					for a := 0; a < j; a++ {
						side[m.M1Node(a)] = aMask>>a&1 == 1
					}
					for b := 0; b < j; b++ {
						side[m.M3Node(b)] = bMask>>b&1 == 1
					}
					for i, v := range mids {
						side[v] = mMask>>i&1 == 1
					}
					if c := cut.New(m.Graph, side).Capacity(); c < want {
						want = c
					}
				}
			}
		}
		if got := M2BisectionWidth(j).Capacity; got != want {
			t.Errorf("BW(MOS%d,%d,M2) = %d, enumeration gives %d", j, j, got, want)
		}
	}
}

func TestLemma219Convergence(t *testing.T) {
	// √2−1 < BW(MOS_{j,j},M2)/j² (strict), decreasing toward the limit.
	prevRatio := math.Inf(1)
	for _, j := range []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		r := M2BisectionWidth(j)
		if r.Ratio <= Limit {
			t.Errorf("j=%d: ratio %g not strictly above √2−1", j, r.Ratio)
		}
		if r.Ratio > prevRatio+1e-12 {
			t.Errorf("j=%d: ratio %g increased from %g", j, r.Ratio, prevRatio)
		}
		prevRatio = r.Ratio
	}
	if final := M2BisectionWidth(1024).Ratio; final > Limit+0.002 {
		t.Errorf("ratio at j=1024 is %g, not within 0.002 of √2−1 = %g", final, Limit)
	}
}

func TestMinimizerConvergesToSqrtHalf(t *testing.T) {
	x, y := Minimizer(512)
	r := math.Sqrt(0.5)
	if math.Abs(x-r) > 0.01 || math.Abs(y-r) > 0.01 {
		t.Errorf("minimizer (%g,%g), want ≈ (√½,√½) = (%g,%g)", x, y, r, r)
	}
}

func TestBuildCutRealizesCapacity(t *testing.T) {
	for _, j := range []int{2, 3, 4, 6, 8, 12} {
		r := M2BisectionWidth(j)
		m := topology.NewMeshOfStars(j, j)
		c := BuildCut(m, r)
		if got := c.Capacity(); got != r.Capacity {
			t.Errorf("j=%d: built cut capacity %d, want %d", j, got, r.Capacity)
		}
		if !c.BisectsSubset(m.M2Nodes()) {
			t.Errorf("j=%d: built cut does not bisect M2", j)
		}
		if c.CountIn([]int{m.M1Node(0)}) == 1 != (r.A > 0) {
			t.Errorf("j=%d: M1 side counts inconsistent", j)
		}
	}
}

func TestSideCostSymmetry(t *testing.T) {
	// Complementing (a,b,t) preserves the cost: C(A,Ā) = C(Ā,A).
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		j := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		a := rng.Intn(j + 1)
		b := rng.Intn(k + 1)
		tc := rng.Intn(j*k + 1)
		if SideCost(j, k, a, b, tc) != SideCost(j, k, j-a, k-b, j*k-tc) {
			t.Fatalf("cost not symmetric at j=%d k=%d a=%d b=%d t=%d", j, k, a, b, tc)
		}
	}
}

func TestM2BisectionWidthRect(t *testing.T) {
	// The square case must agree with M2BisectionWidth.
	for _, j := range []int{2, 3, 4, 8} {
		c, _, _, _ := M2BisectionWidthRect(j, j)
		if want := M2BisectionWidth(j).Capacity; c != want {
			t.Errorf("rect(%d,%d) = %d, square %d", j, j, c, want)
		}
	}
	// Rectangular cross-check against full enumeration for MOS_{2,3}.
	m := topology.NewMeshOfStars(2, 3)
	mids := m.M2Nodes()
	want := 1 << 30
	for aMask := 0; aMask < 4; aMask++ {
		for bMask := 0; bMask < 8; bMask++ {
			for mMask := 0; mMask < 1<<6; mMask++ {
				tc := popcount(mMask)
				if d := 2*tc - 6; d < -1 || d > 1 {
					continue
				}
				side := make([]bool, m.N())
				for a := 0; a < 2; a++ {
					side[m.M1Node(a)] = aMask>>a&1 == 1
				}
				for b := 0; b < 3; b++ {
					side[m.M3Node(b)] = bMask>>b&1 == 1
				}
				for i, v := range mids {
					side[v] = mMask>>i&1 == 1
				}
				if c := cut.New(m.Graph, side).Capacity(); c < want {
					want = c
				}
			}
		}
	}
	c, _, _, _ := M2BisectionWidthRect(2, 3)
	if c != want {
		t.Errorf("rect(2,3) = %d, enumeration %d", c, want)
	}
}

func TestSideCostValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-range SideCost did not panic")
		}
	}()
	SideCost(2, 2, 3, 0, 0)
}

// F is the paper's f(x,y) = x + y − min(1, 2xy) (Lemma 2.17). It equals
// C(g)/j² for the cheapest cut g of MOS_{j,j} that bisects M2 with
// |A∩M1| = xj and |A∩M3| = yj, for ⟨x,y⟩ in the domain D.
func F(x, y float64) float64 {
	return x + y - math.Min(1, 2*x*y)
}

// InDomain reports whether ⟨x,y⟩ lies in D = {0 ≤ x,y ≤ 1 and x+y ≥ 1}.
func InDomain(x, y float64) bool {
	return x >= 0 && x <= 1 && y >= 0 && y <= 1 && x+y >= 1
}

// M2BisectionWidthRect generalizes M2BisectionWidth to rectangular meshes
// MOS_{j,k} (the shape Lemma 2.11 embeds into): the exact minimum capacity
// over cuts bisecting the j·k middle nodes.
func M2BisectionWidthRect(j, k int) (capacity, a, b, t int) {
	if j < 1 || k < 1 {
		panic("mos: dimensions must be positive")
	}
	m2 := j * k
	ts := []int{m2 / 2}
	if m2%2 == 1 {
		ts = append(ts, m2/2+1)
	}
	capacity = -1
	for aa := 0; aa <= j; aa++ {
		for bb := 0; bb <= k; bb++ {
			for _, tt := range ts {
				c := SideCost(j, k, aa, bb, tt)
				if capacity < 0 || c < capacity {
					capacity, a, b, t = c, aa, bb, tt
				}
			}
		}
	}
	return capacity, a, b, t
}

// BuildCut materializes a concrete cut of MOS_{j,j} realizing the values in
// r: a of the M1 nodes and b of the M3 nodes go to A, and the t middle
// nodes placed in A are chosen cheapest-first (both-A, then mixed, then
// both-Ā). The returned cut bisects M2 and has capacity r.Capacity.
func BuildCut(m *topology.MeshOfStars, r Result) *cut.Cut {
	if m.J() != r.J || m.K() != r.J {
		panic("mos: mesh does not match result")
	}
	side := make([]bool, m.N())
	for a := 0; a < r.A; a++ {
		side[m.M1Node(a)] = true
	}
	for b := 0; b < r.B; b++ {
		side[m.M3Node(b)] = true
	}
	type mid struct {
		v    int
		cost int // cost of placing in A minus cost of placing in Ā
	}
	mids := make([]mid, 0, r.J*r.J)
	for a := 0; a < r.J; a++ {
		for b := 0; b < r.J; b++ {
			v := m.M2Node(a, b)
			inA := boolToInt(a >= r.A) + boolToInt(b >= r.B) // cut edges if v ∈ A
			inABar := boolToInt(a < r.A) + boolToInt(b < r.B)
			mids = append(mids, mid{v, inA - inABar})
		}
	}
	// Stable three-way selection: all cost −2 (both-A) first, then 0
	// (mixed), then +2 (both-Ā).
	placed := 0
	for _, want := range []int{-2, 0, 2} {
		for _, md := range mids {
			if placed == r.T {
				break
			}
			if md.cost == want {
				side[md.v] = true
				placed++
			}
		}
	}
	return cut.New(m.Graph, side)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Minimizer returns the optimal fractions (x,y) = (a/j, b/j) of an exact
// M2-bisection of MOS_{j,j}; Lemma 2.19 shows they converge to
// (√(1/2), √(1/2)) as j → ∞.
func Minimizer(j int) (x, y float64) {
	r := M2BisectionWidth(j)
	return float64(r.A) / float64(j), float64(r.B) / float64(j)
}
