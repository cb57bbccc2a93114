package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/route"
	"repro/internal/tablefmt"
	"repro/internal/topology"
)

// StructureReport reproduces the Figure 1 / §1.1 structural facts for one
// butterfly instance (experiment E1).
type StructureReport struct {
	Network       string      `json:"network"`
	Nodes         int         `json:"nodes"`
	NodesFormula  int         `json:"nodes_formula"` // n(log n+1) for Bn, n·log n for Wn
	Edges         int         `json:"edges"`
	DegreeHist    map[int]int `json:"degree_hist"`
	Diameter      int         `json:"diameter"`
	TheoryDiam    int         `json:"theory_diam"` // 2 log n for Bn, ⌊3 log n/2⌋ for Wn
	Connected     bool        `json:"connected"`
	MonotonePaths bool        `json:"monotone_paths"` // Lemma 2.3 verified (Bn only)
}

// ButterflyStructure measures Bn (wrap=false) or Wn (wrap=true).
func ButterflyStructure(n int, wrap bool) StructureReport {
	var b *topology.Butterfly
	rep := StructureReport{}
	if wrap {
		b = topology.NewWrappedButterfly(n)
		rep.Network = fmt.Sprintf("W%d", n)
		rep.NodesFormula = n * b.Dim()
		rep.TheoryDiam = 3 * b.Dim() / 2
	} else {
		b = topology.NewButterfly(n)
		rep.Network = fmt.Sprintf("B%d", n)
		rep.NodesFormula = n * (b.Dim() + 1)
		rep.TheoryDiam = 2 * b.Dim()
	}
	rep.Nodes = b.N()
	rep.Edges = b.M()
	rep.DegreeHist = b.DegreeHistogram()
	rep.Diameter = b.Diameter()
	rep.Connected = b.IsConnected()
	if !wrap {
		rep.MonotonePaths = verifyMonotonePaths(b)
	}
	return rep
}

func verifyMonotonePaths(b *topology.Butterfly) bool {
	for w0 := 0; w0 < b.Inputs(); w0++ {
		for w1 := 0; w1 < b.Inputs(); w1++ {
			p := b.MonotonePath(w0, w1)
			for i := 0; i+1 < len(p); i++ {
				if !b.HasEdge(p[i], p[i+1]) {
					return false
				}
			}
		}
	}
	return true
}

// RenderStructureTable renders E1 reports.
func RenderStructureTable(reports []StructureReport) string {
	t := tablefmt.New("Butterfly structure (Fig. 1 / §1.1)",
		"network", "nodes", "formula", "edges", "degrees", "diameter", "theory diam")
	for _, r := range reports {
		t.AddRow(r.Network, r.Nodes, r.NodesFormula, r.Edges,
			degreesString(r.DegreeHist), r.Diameter, r.TheoryDiam)
	}
	return t.String()
}

func degreesString(h map[int]int) string {
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d×deg%d", h[k], k))
	}
	return strings.Join(parts, " ")
}

// BenesRearrangeabilityCheck routes count random permutations plus the
// identity and reversal through the n-input Beneš network and reports how
// many routed edge-disjointly (experiment E9); rearrangeability predicts
// all of them.
func BenesRearrangeabilityCheck(n, count int, seed int64) (routed, total int) {
	be := topology.NewBenes(n)
	perms := [][]int{identityPerm(n), reversalPerm(n)}
	rng := newRand(seed)
	for i := 0; i < count; i++ {
		perms = append(perms, rng.Perm(n))
	}
	for _, perm := range perms {
		paths, err := route.RoutePermutation(be, perm)
		if err != nil {
			continue
		}
		if ok, _ := route.VerifyEdgeDisjoint(be.Graph, paths); ok {
			routed++
		}
	}
	return routed, len(perms)
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func reversalPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}
