// Package construct builds the explicit cuts the paper's upper bounds rest
// on: the folklore column bisections of Bn and Wn, the dimension cut of
// CCCn, and — the headline — a bisection of Bn with capacity strictly below
// n, realizing the Theorem 2.20 upper bound BW(Bn) ≤ 2(√2−1)n + o(n).
//
// The sub-n bisection follows the paper's §2 construction, applied directly
// on Bn rather than through the B_{n²} detour of Lemma 2.16 (see DESIGN.md):
// columns are classified by their first log j bits (class p) and last log j
// bits (class s); the top log j levels go to side A when s < a, the bottom
// log j levels when p < b, and each middle component — a connected component
// of Bn[log j, log n − log j], compact by Lemma 2.9 — is placed according to
// its (s,p) type. Mixed components cost one edge group (2n/j² edges) on
// either side, and by the Lemma 2.15 frontier argument any prefix of a mixed
// component can sit in A at the same cost, which is how the cut is balanced
// into an exact bisection. Choosing the class counts (a,b) near √(1/2)·j
// makes the group count approach f(x,y)·j² = (√2−1)j², so the capacity
// approaches 2(√2−1)n as j and log n grow.
package construct

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bitutil"
	"repro/internal/cut"
	"repro/internal/mos"
	"repro/internal/obs"
	"repro/internal/topology"
)

// Registry metrics of the virtual plan evaluator: whole-plan counts only
// (the per-column loop is the hot path and stays untouched).
var (
	metricVirtualEvals     = obs.NewCounter("construct.virtual_evals")
	metricVirtualCancelled = obs.NewCounter("construct.virtual_evals_cancelled")
	metricVirtualColumns   = obs.NewCounter("construct.virtual_columns")
)

// ColumnBisection returns the folklore bisection of Bn or Wn: S is the set
// of nodes whose column number starts with 0. Its capacity is exactly n
// (the cross edges between levels 0 and 1), which is why BW ≤ n was the
// folklore belief for Bn and is the true value for Wn.
func ColumnBisection(b *topology.Butterfly) *cut.Cut {
	side := make([]bool, b.N())
	half := b.Inputs() / 2
	for v := 0; v < b.N(); v++ {
		side[v] = b.Column(v) < half
	}
	return cut.New(b.Graph, side)
}

// CCCDimensionCut returns the bisection of CCCn cutting cube dimension 1:
// S is the set of nodes whose cycle label starts with 0. Its capacity is
// n/2, matching BW(CCCn) = n/2 (Lemma 3.3).
func CCCDimensionCut(c *topology.CCC) *cut.Cut {
	side := make([]bool, c.N())
	half := c.Cycles() / 2
	for v := 0; v < c.N(); v++ {
		side[v] = c.CycleLabel(v) < half
	}
	return cut.New(c.Graph, side)
}

// compQuota records how one middle component is split: KA of its nodes go to
// side A, filled from its top level when TopInA and from its bottom level
// otherwise (the Lemma 2.15 frontier shape).
type compQuota struct {
	KA     int
	TopInA bool
}

// Plan is a fully determined sub-n bisection of Bn: the class counts (A,B),
// the per-component quotas, and the predicted capacity. InA decides any
// node's side without the graph, so the virtual evaluators measure a plan
// at any size; Build materializes it as a cut of a given Bn.
type Plan struct {
	N    int `json:"n"`   // columns
	Dim  int `json:"dim"` // log n
	J    int `json:"j"`   // classes per side (power of two)
	LogJ int `json:"log_j"`
	// A and B are |X| and |Y|: side-A class counts for suffix and prefix
	// classes.
	A int `json:"a"`
	B int `json:"b"`

	Groups     int     `json:"groups"`      // capacity in units of edge groups
	GroupEdges int     `json:"group_edges"` // edges per group: 2n/j²
	Capacity   int     `json:"capacity"`    // Groups · GroupEdges
	Ratio      float64 `json:"ratio"`

	quotas []compQuota // indexed by comp id p*J + s
}

// CompSize returns the node count of one middle component:
// (n/j²)·(log n − 2 log j + 1).
func (p *Plan) CompSize() int {
	return p.cols() * (p.Dim - 2*p.LogJ + 1)
}

func (p *Plan) cols() int { return p.N / (p.J * p.J) }

// PlanButterflyBisection computes, for the given n and j, the cheapest plan
// over all class counts (a,b): a(j−b)+(j−a)b groups for the mixed
// components plus 2 groups per both-type component that must be flipped
// (wholly or partially) to reach exact balance. That is the mesh-of-stars
// cost of mos.CheapestClasses, with one middle node per component; the
// first cheapest (a,b) wins. It returns false when the parameters are
// structurally invalid (j² > n or 2·log j > log n).
func PlanButterflyBisection(n, j int) (*Plan, bool) {
	p, ok := classPlan(n, j)
	if !ok {
		return nil, false
	}
	p.assignQuotas()
	return &p, true
}

// classPlan is PlanButterflyBisection without the quota table: the (a,b)
// search and the predicted capacity, computed without allocating. Each
// class chosen for side A in the top (suffix) or bottom (prefix) region
// puts regionA nodes there, so a + b classes leave half − (a+b)·regionA
// side-A nodes for the middle components, compSize nodes each.
func classPlan(n, j int) (Plan, bool) {
	if !bitutil.IsPow2(n) || !bitutil.IsPow2(j) || j < 2 {
		return Plan{}, false
	}
	d := bitutil.Log2(n)
	if d > 48 { // n·(log n + 1) must stay well inside int64
		return Plan{}, false
	}
	lj := bitutil.Log2(j)
	if j*j > n || 2*lj > d {
		return Plan{}, false
	}
	cols := n / (j * j)
	compSize := cols * (d - 2*lj + 1)
	half := n * (d + 1) / 2
	regionA := n * lj / j
	groups, a, b, ok := mos.CheapestClasses(j, compSize, func(s int) int { return half - s*regionA })
	if !ok {
		return Plan{}, false
	}
	return Plan{
		N: n, Dim: d, J: j, LogJ: lj, A: a, B: b,
		Groups: groups, GroupEdges: 2 * cols, Capacity: groups * 2 * cols,
		Ratio: float64(groups*2*cols) / float64(n),
	}, true
}

// assignQuotas distributes the side-A middle nodes over the components so
// that the plan is an exact bisection at the predicted capacity. Component
// (pc, sc) — prefix class pc, suffix class sc — is both-A when pc < b and
// sc < a, both-Ā when pc ≥ b and sc ≥ a, and mixed otherwise; every pass
// below walks its components row-major.
func (p *Plan) assignQuotas() {
	j, a, b := p.J, p.A, p.B
	compSize := p.CompSize()
	half := p.N * (p.Dim + 1) / 2
	regionA := p.N * p.LogJ / j

	// Canonical placement: both-A components fully in A, mixed ones empty
	// with their A-adjacent end first, both-Ā ones empty.
	p.quotas = make([]compQuota, j*j)
	for pc := 0; pc < j; pc++ {
		row := p.quotas[pc*j : (pc+1)*j]
		for sc := range row {
			switch {
			case pc < b && sc < a:
				row[sc] = compQuota{KA: compSize, TopInA: true}
			case pc < b || sc < a:
				row[sc].TopInA = sc < a
			}
		}
	}
	rem := half - (a+b)*regionA - a*b*compSize

	// fill hands the remaining side-A nodes, at most compSize each, to the
	// components of prefix classes [p0, p1) × suffix classes [s0, s1).
	// flip marks both-Ā components, which are filled from the top.
	fill := func(p0, p1, s0, s1 int, flip bool) {
		for pc := p0; pc < p1 && rem > 0; pc++ {
			for sc := s0; sc < s1 && rem > 0; sc++ {
				q := &p.quotas[pc*j+sc]
				q.KA = min(rem, compSize)
				if flip {
					q.TopInA = true
				}
				rem -= q.KA
			}
		}
	}
	if rem >= 0 {
		// Fill the mixed components (rows pc < b hold them at sc ≥ a, the
		// rest at sc < a), then flip both-Ā components if the mixed pool is
		// not enough.
		fill(0, b, a, j, false)
		fill(b, j, 0, a, false)
		fill(b, j, a, j, true)
	} else {
		// Too many side-A nodes already: drain both-A components.
		for pc := 0; pc < b && rem < 0; pc++ {
			for sc := 0; sc < a && rem < 0; sc++ {
				take := min(-rem, compSize)
				p.quotas[pc*j+sc].KA -= take
				rem += take
			}
		}
	}
	if rem != 0 {
		panic(fmt.Sprintf("construct: plan balance infeasible (rem=%d); PlanButterflyBisection should have rejected it", rem))
	}
}

// InA reports whether node ⟨w,i⟩ of Bn belongs to side A of the plan.
func (p *Plan) InA(w, i int) bool {
	d, lj := p.Dim, p.LogJ
	switch {
	case i <= lj-1:
		return bitutil.Suffix(w, d, lj) < p.A
	case i >= d-lj+1:
		return bitutil.Prefix(w, d, lj) < p.B
	default:
		s := bitutil.Suffix(w, d, lj)
		pc := bitutil.Prefix(w, d, lj)
		q := p.quotas[pc*p.J+s]
		cols := p.cols()
		m := bitutil.Mid(w, d, lj+1, d-lj)
		pos := (i-lj)*cols + m
		if q.TopInA {
			return pos < q.KA
		}
		return pos >= p.CompSize()-q.KA
	}
}

// Build materializes the plan as a cut of the given Bn, which must match the
// plan's n.
func (p *Plan) Build(b *topology.Butterfly) *cut.Cut {
	if b.Wraparound() || b.Inputs() != p.N {
		panic("construct: butterfly does not match plan")
	}
	side := make([]bool, b.N())
	for v := 0; v < b.N(); v++ {
		side[v] = p.InA(b.Column(v), b.Level(v))
	}
	return cut.New(b.Graph, side)
}

// EvaluateVirtual measures the plan on a virtual Bn without materializing
// the graph: it streams over all 2n·log n edges and N nodes, returning the
// measured capacity and the size of side A. It lets the experiments verify
// sub-n bisections on butterflies with tens of millions of edges.
func (p *Plan) EvaluateVirtual() (capacity, sizeA int) {
	n, d := p.N, p.Dim
	for i := 0; i < d; i++ {
		for w := 0; w < n; w++ {
			a := p.InA(w, i)
			if a != p.InA(w, i+1) {
				capacity++
			}
			if a != p.InA(bitutil.FlipBit(w, d, i+1), i+1) {
				capacity++
			}
			if a {
				sizeA++
			}
		}
	}
	// The loop above counts side-A nodes on levels 0..d−1; add level d.
	for w := 0; w < n; w++ {
		if p.InA(w, d) {
			sizeA++
		}
	}
	return capacity, sizeA
}

// maxPlanJ caps the j sweep. For every n ≤ 2^48 the winning j is at most
// 32, and plans with log j anywhere near log n / 2 have no middle region to
// balance through, so the cap changes no plan. But the class search is O(j)
// per candidate, and without the cap the sweep at n = 2^48 would visit j up
// to 2^24: 0.4 s on a 2-vCPU Xeon, against 0.26 ms capped.
const maxPlanJ = 4096

// EvaluateVirtualParallelCtx is EvaluateVirtual under ctx, with the same
// counts, on workers workers (≤ 0: GOMAXPROCS; 1 runs on the calling
// goroutine alone). Plans with at least one full word of columns run the
// word-parallel kernel (see word.go): membership masks for 64 columns at a
// time, popcount edge accounting, cache-resident blocks fanned over
// workers, ctx polled between blocks. Any other plan — narrower than one
// word, or a hand-built one whose blocks exceed the kernel's scratch bound
// — runs the scalar EvaluateVirtual on the calling goroutine. On
// cancellation the counts are discarded: it returns zeros and a non-nil
// error wrapping ctx.Err().
func (p *Plan) EvaluateVirtualParallelCtx(ctx context.Context, workers int) (capacity, sizeA int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.wordEligible() {
		capacity, sizeA, err = p.evaluateWords(ctx, workers)
	} else {
		capacity, sizeA = p.EvaluateVirtual()
		err = ctx.Err()
	}
	metricVirtualEvals.Inc()
	if err != nil {
		metricVirtualCancelled.Inc()
		return 0, 0, fmt.Errorf("construct: virtual evaluation of n=%d plan interrupted: %w", p.N, err)
	}
	metricVirtualColumns.Add(int64(p.N))
	return capacity, sizeA, nil
}

// VirtualBisectionCapacity evaluates the plan virtually under ctx and
// certifies it is an exact bisection, returning the measured capacity. An
// unbalanced plan — a construction bug — yields an error naming the
// plan's n, the measured |A|, and the required N/2, instead of the panic
// this path used to take.
func (p *Plan) VirtualBisectionCapacity(ctx context.Context, workers int) (int, error) {
	capacity, sizeA, err := p.EvaluateVirtualParallelCtx(ctx, workers)
	if err != nil {
		return 0, err
	}
	nodes := p.N * (p.Dim + 1)
	if sizeA != nodes/2 {
		return 0, fmt.Errorf("construct: virtual plan for n=%d is not a bisection: |A|=%d, want N/2=%d",
			p.N, sizeA, nodes/2)
	}
	return capacity, nil
}

// BestPlan sweeps j over the valid powers of two and returns the cheapest
// plan for an n-column butterfly, the first such j on a tie. For small n it
// returns the folklore column cut expressed as a plan (j = 2); the capacity
// drops below n once log n is large enough for a finer class grid. Only the
// winner's quota table is filled, so the sweep allocates nothing but the
// returned plan. When no class grid fits — n below 4, not a power of two,
// or beyond the log n ≤ 48 plan range — it returns an error instead of the
// panic this path used to take.
func BestPlan(n int) (*Plan, error) {
	var best Plan
	found := false
	for j := 2; j*j <= n && j <= maxPlanJ; j *= 2 {
		p, ok := classPlan(n, j)
		if ok && (!found || p.Capacity < best.Capacity) {
			best, found = p, true
		}
	}
	if !found {
		return nil, fmt.Errorf("construct: no valid bisection plan for n=%d (need a power of two with 4 ≤ n ≤ 2^48)", n)
	}
	best.assignQuotas()
	return &best, nil
}

// TheoreticalRatio is the Theorem 2.20 limit 2(√2−1) ≈ 0.828 that the plan
// ratios approach from above.
var TheoreticalRatio = 2 * (math.Sqrt2 - 1)
