// Command butterfly inspects butterfly networks (experiment E1): it prints
// the Figure 1 structure of B8 by default — node counts, degree profile,
// diameter against the §1.1 formulas — an ASCII rendering of the network
// with its straight/cross edge pattern, optional Graphviz DOT output, and
// the Beneš rearrangeability check behind Lemma 2.5.
//
// -json writes the structure table and the Beneš check as a
// machine-readable run manifest.
//
// Usage:
//
//	butterfly [-n 8] [-wrap] [-diagram] [-dot] [-json path] [-trace path]
//	          [-metrics]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/render"
	"repro/internal/topology"
)

func main() {
	n := flag.Int("n", 8, "number of butterfly inputs (power of two)")
	wrap := flag.Bool("wrap", false, "inspect Wn instead of Bn")
	diagram := flag.Bool("diagram", true, "print the Figure 1 style diagram (Bn only, n ≤ 16)")
	dot := flag.Bool("dot", false, "emit Graphviz DOT to stdout instead of the report")
	out := cli.RegisterOutput()
	flag.Parse()

	sizeErr := cli.PowerOfTwo("n", *n)
	if sizeErr == nil && *wrap && *n < 4 {
		// W2 degenerates to self-loops, so topology.NewWrappedButterfly
		// panics below n = 4.
		sizeErr = fmt.Errorf("-n must be a power of two ≥ 4 with -wrap (got %d)", *n)
	}
	cli.Validate(sizeErr)

	if *dot {
		var b *topology.Butterfly
		if *wrap {
			b = topology.NewWrappedButterfly(*n)
		} else {
			b = topology.NewButterfly(*n)
		}
		render.ButterflyDOT(os.Stdout, b, nil)
		return
	}

	out.Start("butterfly")

	reports := []core.StructureReport{core.ButterflyStructure(*n, *wrap)}
	if !*wrap && *n >= 4 {
		reports = append(reports, core.ButterflyStructure(*n, true))
	}
	fmt.Print(core.RenderStructureTable(reports))

	if *diagram && !*wrap && *n <= 16 {
		fmt.Println()
		fmt.Print(render.ButterflyASCII(topology.NewButterfly(*n)))
	}

	routed, total := core.BenesRearrangeabilityCheck(maxInt(*n, 4), 100, 7)
	fmt.Printf("\nBeneš rearrangeability (Lemma 2.5 substrate): %d/%d permutations routed edge-disjointly\n",
		routed, total)

	m := out.Manifest()
	m.AddTable("structure", "E1: structure (Fig. 1, §1.1)", reports).
		AddTable("benes", "Beneš rearrangeability (Lemma 2.5)", []core.BenesCheck{
			{N: maxInt(*n, 4), Routed: routed, Total: total},
		})
	out.Finish(m)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
