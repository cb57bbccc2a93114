// Package mos analyzes the M2-bisection width of the mesh of stars,
// following §2.2 of the paper: the function f(x,y) = x + y − min(1,2xy) on
// the domain D = {0 ≤ x,y ≤ 1, x+y ≥ 1} governs the capacity of cuts of
// MOS_{j,j} that bisect the middle level M2, its global minimum √2 − 1 is
// attained at x = y = √(1/2) (Lemma 2.18), and therefore
// BW(MOS_{j,j},M2)/j² → √2 − 1 (Lemma 2.19). This limit is the constant in
// the paper's headline result BW(Bn) = 2(√2−1)n + o(n).
package mos

import (
	"math"
)

// Limit is √2 − 1, the limit of BW(MOS_{j,j},M2)/j² (Lemma 2.19) and half
// the leading constant of BW(Bn)/n (Theorem 2.20).
var Limit = math.Sqrt2 - 1

// SideCost returns the minimum capacity over cuts (A,Ā) of MOS_{j,k} with
// |A∩M1| = a, |A∩M3| = b and |A∩M2| = t. Middle nodes are independent: a
// middle node with both endpoints in A costs 0 in A and 2 in Ā, one with
// both in Ā costs 2 in A and 0 in Ā, and a mixed one costs 1 on either
// side; the cheapest placement fills A with both-A middles first, then
// mixed, then both-Ā.
func SideCost(j, k, a, b, t int) int {
	if a < 0 || a > j || b < 0 || b > k || t < 0 || t > j*k {
		panic("mos: side counts out of range")
	}
	bothA := a * b
	bothABar := (j - a) * (k - b)
	mixed := j*k - bothA - bothABar
	cost := mixed
	if t < bothA {
		cost += 2 * (bothA - t) // both-A middles forced into Ā
	}
	if t > bothA+mixed {
		cost += 2 * (t - bothA - mixed) // both-Ā middles forced into A
	}
	return cost
}

// Result describes an optimal M2-bisecting cut of MOS_{j,j}.
type Result struct {
	J        int `json:"j"`
	Capacity int `json:"capacity"` // BW(MOS_{j,j}, M2)
	// A and B are the optimal |A∩M1| and |A∩M3|; T the optimal |A∩M2|.
	A     int     `json:"a"`
	B     int     `json:"b"`
	T     int     `json:"t"`
	Ratio float64 `json:"ratio"` // Capacity / j²
}

// M2BisectionWidth computes BW(MOS_{j,j},M2) exactly by minimizing SideCost
// over all (a, b) and both admissible middle counts t ∈ {⌊j²/2⌋, ⌈j²/2⌉}.
// This is the closed-form counterpart of the paper's Lemma 2.17 argument,
// valid for every j ≥ 1 (the paper restricts to even j to keep j²/2
// integral; the floor/ceil handles odd j).
func M2BisectionWidth(j int) Result {
	if j < 1 {
		panic("mos: j must be positive")
	}
	m2 := j * j
	ts := []int{m2 / 2}
	if m2%2 == 1 {
		ts = append(ts, m2/2+1)
	}
	best := Result{J: j, Capacity: -1}
	for a := 0; a <= j; a++ {
		for b := 0; b <= j; b++ {
			for _, t := range ts {
				c := SideCost(j, j, a, b, t)
				if best.Capacity < 0 || c < best.Capacity {
					best = Result{J: j, Capacity: c, A: a, B: b, T: t}
				}
			}
		}
	}
	// Costs are symmetric under complementing A, so both (a,b) and
	// (j−a,j−b) are optimal; canonicalize as the paper does in Lemma 2.19,
	// assuming WLOG j ≤ |A∩(M1∪M3)|.
	if best.A+best.B < j {
		best.A, best.B, best.T = j-best.A, j-best.B, m2-best.T
	}
	best.Ratio = float64(best.Capacity) / float64(m2)
	return best
}
