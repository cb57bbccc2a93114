// Package compactness implements executable versions of the paper's
// "compact" and "amenable" set notions (§2): a set U is compact in G if any
// cut can be rearranged, touching only U, so that U lies entirely on one
// side without increasing capacity; U is amenable with respect to a cut if
// any number of its nodes (0..|U|) can be placed on the A side, again
// touching only U and never increasing capacity.
//
// Compactness powers the paper's cut surgery (Lemmas 2.8, 2.9, 2.13) and
// amenability its rebalancing step (Lemmas 2.15, 2.16); package construct
// relies on the same frontier shapes to balance the sub-n bisection of Bn.
//
// The package is test code only: no binary needs the checks, so they live
// beside the tests that run them (experiment E10, `go test
// ./internal/compactness`).
package compactness

import (
	"math/rand"

	"repro/internal/cut"
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/topology"
)

// MoveSetCapacities returns the capacities of the two cuts obtained from
// side by moving all of U into S and into S̄ respectively (the only two
// candidates permitted by the definition of compact).
func MoveSetCapacities(g *graph.Graph, u []int, side []bool) (allInS, allInSbar int) {
	work := make([]bool, len(side))

	copy(work, side)
	for _, v := range u {
		work[v] = true
	}
	allInS = cut.New(g, work).Capacity()

	copy(work, side)
	for _, v := range u {
		work[v] = false
	}
	allInSbar = cut.New(g, work).Capacity()
	return allInS, allInSbar
}

// IsCompactForCut reports whether U can be consolidated onto one side of the
// given cut without increasing its capacity.
func IsCompactForCut(g *graph.Graph, u []int, side []bool) bool {
	base := cut.New(g, append([]bool(nil), side...)).Capacity()
	inS, inSbar := MoveSetCapacities(g, u, side)
	return inS <= base || inSbar <= base
}

// VerifyCompactAllCuts checks compactness of U against every one of the 2^N
// cuts of g. Exponential; intended for networks of at most ~20 nodes.
func VerifyCompactAllCuts(g *graph.Graph, u []int) bool {
	n := g.N()
	if n > 24 {
		panic("compactness: exhaustive verification limited to 24 nodes")
	}
	side := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for v := 0; v < n; v++ {
			side[v] = mask>>v&1 == 1
		}
		if !IsCompactForCut(g, u, side) {
			return false
		}
	}
	return true
}

// VerifyCompactRandomCuts checks compactness of U against trials random
// cuts, returning the first violating side assignment or nil.
func VerifyCompactRandomCuts(g *graph.Graph, u []int, trials int, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed))
	for t := 0; t < trials; t++ {
		side := make([]bool, g.N())
		for v := range side {
			side[v] = rng.Intn(2) == 0
		}
		if !IsCompactForCut(g, u, side) {
			return side
		}
	}
	return nil
}

// IsAmenableForCut reports whether U is amenable with respect to the cut:
// for every k in 0..|U| some redistribution of U with exactly k nodes in S
// keeps the capacity at or below the original. It enumerates subsets of U
// and is intended for |U| ≤ ~20.
func IsAmenableForCut(g *graph.Graph, u []int, side []bool) bool {
	if len(u) > 24 {
		panic("compactness: amenability enumeration limited to |U| ≤ 24")
	}
	base := cut.New(g, append([]bool(nil), side...)).Capacity()
	bestPerK := make([]int, len(u)+1)
	for k := range bestPerK {
		bestPerK[k] = -1
	}
	work := make([]bool, len(side))
	for mask := 0; mask < 1<<len(u); mask++ {
		copy(work, side)
		k := 0
		for i, v := range u {
			in := mask>>i&1 == 1
			work[v] = in
			if in {
				k++
			}
		}
		c := cut.New(g, work).Capacity()
		if bestPerK[k] < 0 || c < bestPerK[k] {
			bestPerK[k] = c
		}
	}
	for _, c := range bestPerK {
		if c > base {
			return false
		}
	}
	return true
}

// Lemma28PathCertificate runs the Lemma 2.8 proof constructively on a
// concrete cut g = (A,Ā) of Bn: it picks a port bijection π sending the
// ports of Ā∩I into ports of A∩O (and the ports of Ā∩O receiving from
// A∩I), routes π through Bn along the edge-disjoint Lemma 2.5 paths, and
// counts the routed paths that join opposite sides of the cut — each such
// path must cross g at least once, and the paths are edge-disjoint, so
// their number (2·|minority side ∩ L0|) is a certified lower bound on
// C(g). The function returns that bound and whether the certificate's
// internal checks passed.
func Lemma28PathCertificate(b *topology.Butterfly, side []bool) (bound int, ok bool) {
	if b.Wraparound() {
		panic("compactness: Lemma 2.8 certificate targets Bn")
	}
	n := b.Inputs()
	ins, outs := embed.BenesIOPartition(b)

	// WLOG the minority side of L0 is Ā (swap otherwise).
	minority := make([]bool, b.N())
	inCount := 0
	for _, v := range b.LevelNodes(0) {
		if side[v] {
			inCount++
		}
	}
	for v := range minority {
		if inCount <= n/2 {
			minority[v] = side[v] // Ā role played by S
		} else {
			minority[v] = !side[v]
		}
	}

	// Port p (input) lives on I node ins[p/2]; output port q on outs[q/2].
	var minIn, majIn, minOut, majOut []int
	for p := 0; p < n; p++ {
		if minority[ins[p/2]] {
			minIn = append(minIn, p)
		} else {
			majIn = append(majIn, p)
		}
		if minority[outs[p/2]] {
			minOut = append(minOut, p)
		} else {
			majOut = append(majOut, p)
		}
	}
	// Lemma 2.8's counting guarantees |minIn| ≤ |majOut| and
	// |minOut| ≤ |majIn|.
	if len(minIn) > len(majOut) || len(minOut) > len(majIn) {
		return 0, false
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = -1
	}
	usedOut := make([]bool, n)
	for i, p := range minIn { // minority inputs → majority outputs
		perm[p] = majOut[i]
		usedOut[majOut[i]] = true
	}
	mi := 0
	for _, q := range minOut { // minority outputs ← majority inputs
		for perm[majIn[mi]] != -1 {
			mi++
		}
		perm[majIn[mi]] = q
		usedOut[q] = true
	}
	free := 0
	for p := 0; p < n; p++ {
		if perm[p] != -1 {
			continue
		}
		for usedOut[free] {
			free++
		}
		perm[p] = free
		usedOut[free] = true
	}

	paths, err := route.ButterflyPortPaths(b, perm)
	if err != nil {
		return 0, false
	}
	if disjoint, _ := route.VerifyEdgeDisjoint(b.Graph, paths); !disjoint {
		return 0, false
	}
	crossing := 0
	for _, p := range paths {
		if minority[p[0]] != minority[p[len(p)-1]] {
			crossing++
			// The path must actually cross somewhere.
			crossed := false
			for i := 0; i+1 < len(p); i++ {
				if side[p[i]] != side[p[i+1]] {
					crossed = true
					break
				}
			}
			if !crossed {
				return 0, false
			}
		}
	}
	return crossing, true
}

// FrontierAssignment places exactly k nodes of the component comp of
// Bn[lo,hi] on the S side using the Lemma 2.15 frontier shape: if topInS,
// nodes fill level-major from the component's top level down; otherwise
// from its bottom level up. The assignment is written into side.
func FrontierAssignment(comp topology.LevelRangeComponent, k int, topInS bool, side []bool) {
	nodes := comp.Nodes() // level-major from the top
	if !topInS {
		for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
			nodes[i], nodes[j] = nodes[j], nodes[i]
		}
	}
	for i, v := range nodes {
		side[v] = i < k
	}
}

// VerifyFrontierAmenability checks the Lemma 2.15 conclusion for a concrete
// component U of Bn[1, log n − 1]-style level ranges: given a cut whose U
// top neighbors are in S and bottom neighbors in S̄ (or vice versa, with
// topInS=false), every k must be realizable by a frontier assignment at
// capacity ≤ the cut's. It returns the first failing k, or −1.
func VerifyFrontierAmenability(g *graph.Graph, comp topology.LevelRangeComponent, side []bool, topInS bool) int {
	base := cut.New(g, append([]bool(nil), side...)).Capacity()
	work := make([]bool, len(side))
	for k := 0; k <= comp.Size(); k++ {
		copy(work, side)
		FrontierAssignment(comp, k, topInS, work)
		if cut.New(g, work).Capacity() > base {
			return k
		}
	}
	return -1
}
