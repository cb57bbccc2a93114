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

// CheapestClasses minimises the Lemma 2.17 cost over the class counts of
// MOS_{j,j}: side A takes a of the M1 nodes, b of the M3 nodes and
// target(a+b) units of the middle level, where each middle node holds size
// units. A middle node costs, in edge groups, its edges that cross: a
// mixed one (one endpoint in A) costs 1 wherever its units go, and a
// both-A or both-Ā one costs 0 if all its units sit on its endpoints' side
// and 2 otherwise. With s = a + b and p = ab there are p both-A middles and
// js − 2p mixed ones, so the cheapest placement of T = target(s) units
// costs js − 2·min(p, ⌊T/size⌋, js − ⌈T/size⌉) groups. That never rises
// with p, so one pass over s, taking p = ⌊s/2⌋·⌈s/2⌉, finds the minimum.
// CheapestClasses returns it with the first (a, b) in (a, b) order that
// attains it; ok is false when no s has 0 ≤ target(s) ≤ j²·size.
func CheapestClasses(j, size int, target func(s int) int) (cost, a, b int, ok bool) {
	for s := 0; s <= 2*j; s++ {
		t := target(s)
		if t < 0 || t > j*j*size {
			continue
		}
		// saved is p less the both-type middles that placing t units
		// flips, at the largest p this s allows.
		saved := min(s/2*(s-s/2), t/size, j*s-(t+size-1)/size)
		c := j*s - 2*saved
		if ok && c > cost {
			continue
		}
		// The smallest a with a(s−a) ≥ saved attains c at this s; a(s−a)
		// rises on [max(0, s−j), ⌊s/2⌋].
		lo, hi := max(0, s-j), s/2
		for lo < hi {
			if mid := (lo + hi) / 2; mid*(s-mid) >= saved {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		// On a tie an equal a has the larger b, as s only grows.
		if !ok || c < cost || lo < a {
			cost, a, b, ok = c, lo, s-lo, true
		}
	}
	return cost, a, b, ok
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

// M2BisectionWidth computes BW(MOS_{j,j},M2) exactly: CheapestClasses
// with unit middles, for each admissible middle count t ∈ {⌊j²/2⌋,
// ⌈j²/2⌉}, keeping the first optimum in (a, b, t) order. This is the
// closed-form counterpart of the paper's Lemma 2.17 argument, valid for
// every j ≥ 1 (the paper restricts to even j to keep j²/2 integral; the
// floor/ceil handles odd j).
func M2BisectionWidth(j int) Result {
	if j < 1 {
		panic("mos: j must be positive")
	}
	m2 := j * j
	best := Result{J: j, Capacity: -1}
	for t := m2 / 2; t <= (m2+1)/2; t++ {
		c, a, b, _ := CheapestClasses(j, 1, func(int) int { return t })
		if best.Capacity < 0 || c < best.Capacity || c == best.Capacity && (a < best.A || a == best.A && b < best.B) {
			best = Result{J: j, Capacity: c, A: a, B: b, T: t}
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
