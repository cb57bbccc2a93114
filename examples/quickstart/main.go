// Quickstart: build a butterfly, measure the folklore column bisection,
// beat it with the paper's construction, and certify a lower bound — the
// whole Theorem 2.20 story in a page of code.
package main

import (
	"context"
	"fmt"

	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/topology"
)

func main() {
	// The 32-node butterfly of the paper's Figure 1.
	b := topology.NewButterfly(8)
	fmt.Printf("B8: %d nodes, %d edges, diameter %d (theory: 2·log n = %d)\n",
		b.N(), b.M(), b.Diameter(), 2*b.Dim())

	// The folklore bisection: split by the first column bit.
	folklore := construct.ColumnBisection(b)
	fmt.Printf("folklore column cut: capacity %d (= n)\n", folklore.Capacity())

	// The exact bisection width, by branch and bound.
	_, bw := exact.MinBisection(b.Graph)
	fmt.Printf("exact BW(B8) = %d — folklore holds at small n, as the o(n) term allows\n", bw)

	// At large n the paper's construction drops below n. No graph is
	// materialized: half a million nodes are evaluated virtually, 64
	// columns at a time by the word-parallel kernel.
	n := 1 << 15
	plan, err := construct.BestPlan(n)
	if err != nil {
		panic(err)
	}
	capacity, sizeA, err := plan.EvaluateVirtualParallelCtx(context.Background(), 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nB%d: constructed bisection capacity %d < n = %d (ratio %.4f)\n",
		n, capacity, n, plan.Ratio)
	fmt.Printf("  exact balance: |A| = %d of %d nodes\n", sizeA, n*(plan.Dim+1))
	fmt.Printf("  theory limit: 2(√2−1) ≈ %.4f (Theorem 2.20)\n", core.TheoreticalBisectionRatio)
}
