package core

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/cut"
	"repro/internal/exact"
	"repro/internal/expansion"
	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/tablefmt"
	"repro/internal/topology"
)

// ExpansionKind selects one of the four §4 quantities.
type ExpansionKind int

// The four expansion functions bounded in §4 of the paper.
const (
	WnEdge ExpansionKind = iota // EE(Wn,k): (4±o(1))k/log k
	WnNode                      // NE(Wn,k): between (1−o(1)) and (3+o(1)) k/log k
	BnEdge                      // EE(Bn,k): (2±o(1))k/log k
	BnNode                      // NE(Bn,k): between (1/2−o(1)) and (1+o(1)) k/log k
)

// String names the kind as in the §4.3 tables.
func (k ExpansionKind) String() string {
	switch k {
	case WnEdge:
		return "EE(Wn,k)"
	case WnNode:
		return "NE(Wn,k)"
	case BnEdge:
		return "EE(Bn,k)"
	case BnNode:
		return "NE(Bn,k)"
	}
	return "?"
}

// Slug is the manifest-safe name of the kind ("ee_wn", "ne_bn", ...).
func (k ExpansionKind) Slug() string {
	switch k {
	case WnEdge:
		return "ee_wn"
	case WnNode:
		return "ne_wn"
	case BnEdge:
		return "ee_bn"
	case BnNode:
		return "ne_bn"
	}
	return "unknown"
}

// MarshalJSON renders the kind as its slug, keeping manifests readable
// without exposing the iota values.
func (k ExpansionKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.Slug() + `"`), nil
}

// ParseExpansionKind maps a manifest slug ("ee_wn", "ne_bn", ...) back to
// its kind — the inverse of Slug, shared by manifest round trips and the
// query-server request parser.
func ParseExpansionKind(slug string) (ExpansionKind, error) {
	switch slug {
	case "ee_wn":
		return WnEdge, nil
	case "ne_wn":
		return WnNode, nil
	case "ee_bn":
		return BnEdge, nil
	case "ne_bn":
		return BnNode, nil
	}
	return 0, fmt.Errorf("core: unknown expansion kind %q", slug)
}

// UnmarshalJSON accepts the slug form back (manifest round trips).
func (k *ExpansionKind) UnmarshalJSON(data []byte) error {
	var slug string
	if err := json.Unmarshal(data, &slug); err != nil {
		return fmt.Errorf("core: expansion kind: %w", err)
	}
	kind, err := ParseExpansionKind(slug)
	if err != nil {
		return err
	}
	*k = kind
	return nil
}

// Constants returns the lower- and upper-bound constants c in c·k/log k from
// the §4.3 summary tables.
func (k ExpansionKind) Constants() (lower, upper float64) {
	switch k {
	case WnEdge:
		return 4, 4
	case WnNode:
		return 1, 3
	case BnEdge:
		return 2, 2
	case BnNode:
		return 0.5, 1
	}
	return 0, 0
}

// ExpansionRow is one (network, k) entry of the §4.3 reproduction: the
// witness construction's measured boundary (upper bound), the
// credit-scheme certified lower bound evaluated on that witness, and —
// when the size budget allows — the true optimum.
type ExpansionRow struct {
	Kind      ExpansionKind `json:"kind"`
	N         int           `json:"n"` // butterfly inputs
	D         int           `json:"d"` // witness sub-butterfly dimension
	K         int           `json:"k"` // set size
	WitnessUB int           `json:"witness_ub"`
	// WitnessFormula is the lemma's exact prediction for the witness
	// boundary (4·2^d, 3·2^(d+1), 2·2^d or 2^(d+1)); the measured
	// WitnessUB must equal it.
	WitnessFormula int `json:"witness_formula"`
	CreditLB       int `json:"credit_lb"`
	// Exact is the branch-and-bound optimum (Unknown beyond the budget).
	// It is certified only when ExactComplete is true; a cancelled survey
	// leaves the best incumbent here (still an upper bound).
	Exact         int  `json:"exact"`
	ExactComplete bool `json:"exact_complete"`
	// Explored/Pruned count branch-and-bound nodes behind the Exact value.
	Explored int64   `json:"explored"`
	Pruned   int64   `json:"pruned"`
	TheoryLB float64 `json:"theory_lb"` // c_lower·k/log k
	TheoryUB float64 `json:"theory_ub"` // c_upper·k/log k
}

// MaxWitnessDim returns the largest witness dimension d for which the
// kind's §4 lemma construction exists on an n-input network (the lemmas
// need room around the sub-butterfly; see the constraints in package
// expansion). Dimensions above it make the witness constructors panic.
func MaxWitnessDim(kind ExpansionKind, n int) int {
	dim := 0
	for x := n; x > 1; x >>= 1 {
		dim++
	}
	switch kind {
	case WnEdge:
		return dim - 2
	case WnNode:
		return dim - 3
	case BnEdge, BnNode:
		return dim - 1
	}
	return 0
}

func witnessFormula(kind ExpansionKind, d int) int {
	switch kind {
	case WnEdge:
		return 4 << d
	case WnNode:
		return 3 << (d + 1)
	case BnEdge:
		return 2 << d
	case BnNode:
		return 1 << (d + 1)
	}
	return 0
}

// ExpansionTableOptions tune the exact-certification pass of
// ExpansionTable. The zero value reproduces the historical budget
// (k ≤ 8, GOMAXPROCS workers) with the exact pass disabled until
// ExactNodes is set.
type ExpansionTableOptions struct {
	// ExactNodes enables the exact engine on networks whose effective
	// search size is at most this many nodes; 0 disables exact optima.
	ExactNodes int
	// KMax caps the set sizes handed to the exact engine (default 8). The
	// parallel witness-seeded engine makes k = 10–12 reachable on small
	// networks; see cmd/exptable's -kmax flag.
	KMax int
	// Workers is the exact engine's worker-pool size (0 = GOMAXPROCS).
	Workers int

	// Ctx cancels the exact pass: interrupted searches report their best
	// incumbent with ExactComplete false instead of running to the end.
	// Witness measurement and credit certification are unaffected (cheap).
	// nil means never cancelled.
	Ctx context.Context
	// OnProgress, when non-nil, receives solver progress snapshots every
	// second while the exact pass runs.
	OnProgress func(solve.Progress)
	// Trace, when non-nil, receives the survey's span events.
	Trace *obs.Tracer
}

func (o ExpansionTableOptions) withDefaults() ExpansionTableOptions {
	if o.KMax <= 0 {
		o.KMax = 8
	}
	return o
}

// ExpansionTable evaluates one §4.3 row family on an n-input network for
// each witness dimension in dims. Exact optima are computed when the
// enumeration is affordable (small n and k): all affordable rows are
// batched into one exact.ExpansionSurveyWithOptions call, which searches
// each k once per node class the network declares, and seeded with the
// witness sets so the branch-and-bound prunes against a tight incumbent
// from the start, and a cancelled row still reads its witness.
func ExpansionTable(kind ExpansionKind, n int, dims []int, opts ExpansionTableOptions) []ExpansionRow {
	opts = opts.withDefaults()
	rows := make([]ExpansionRow, 0, len(dims))
	var g *topology.Butterfly
	switch kind {
	case WnEdge, WnNode:
		g = topology.NewWrappedButterfly(n)
	case BnEdge, BnNode:
		g = topology.NewButterfly(n)
	}
	// Wn is one node class, so its search is rooted and a factor N cheaper
	// (the halved cost proxy reflects that).
	costNodes := g.N()
	if g.Wraparound() {
		costNodes = g.N() / 2
	}
	witnesses := make(map[int][]int)
	for _, d := range dims {
		row, set := expansionRow(kind, g, d)
		rows = append(rows, row)
		witnesses[row.K] = set
	}

	// Batch the affordable rows into one survey, seeded by their witnesses.
	var ks []int
	for _, r := range rows {
		if expansionExactAffordable(costNodes, r.K, opts.ExactNodes, opts.KMax) {
			ks = append(ks, r.K)
		}
	}
	if len(ks) == 0 {
		return rows
	}
	seed := func(k int) []int { return witnesses[k] }
	surveyOpts := exact.SurveyOptions{
		EdgeOnly:   kind == WnEdge || kind == BnEdge,
		NodeOnly:   kind == WnNode || kind == BnNode,
		EdgeSeed:   seed,
		NodeSeed:   seed,
		Ctx:        opts.Ctx,
		OnProgress: opts.OnProgress,
		Label:      fmt.Sprintf("%s survey n=%d", kind, n),
		Trace:      opts.Trace,
	}
	type exactOutcome struct {
		value    int
		complete bool
		explored int64
		pruned   int64
	}
	exactByK := make(map[int]exactOutcome)
	for _, res := range exact.ExpansionSurveyWithOptions(g.Graph, ks, opts.Workers, surveyOpts) {
		if res.EE != exact.NotComputed {
			exactByK[res.K] = exactOutcome{res.EE, res.EEExact, res.EEExplored, res.EEPruned}
		} else {
			exactByK[res.K] = exactOutcome{res.NE, res.NEExact, res.NEExplored, res.NEPruned}
		}
	}
	for i := range rows {
		if o, ok := exactByK[rows[i].K]; ok {
			rows[i].Exact = o.value
			rows[i].ExactComplete = o.complete
			rows[i].Explored = o.explored
			rows[i].Pruned = o.pruned
		}
	}
	return rows
}

// expansionRow measures one witness row: the set, its boundary, the credit
// certificate and the theory band — everything except the exact optimum.
// It returns the witness set with the row.
func expansionRow(kind ExpansionKind, g *topology.Butterfly, d int) (ExpansionRow, []int) {
	var set []int
	var ub int
	switch kind {
	case WnEdge:
		set = expansion.WnEdgeWitness(g, d)
		ub = cut.EdgeBoundary(g.Graph, set)
	case WnNode:
		set = expansion.WnNodeWitness(g, d)
		ub = len(cut.NodeBoundary(g.Graph, set))
	case BnEdge:
		set = expansion.BnEdgeWitness(g, d)
		ub = cut.EdgeBoundary(g.Graph, set)
	case BnNode:
		set = expansion.BnNodeWitness(g, d)
		ub = len(cut.NodeBoundary(g.Graph, set))
	}
	row := ExpansionRow{Kind: kind, N: g.Inputs(), D: d, K: len(set), WitnessUB: ub,
		WitnessFormula: witnessFormula(kind, d), Exact: Unknown}
	switch kind {
	case WnEdge:
		row.CreditLB = expansion.WnEdgeCreditBound(g, set).LowerBound
	case WnNode:
		row.CreditLB = expansion.WnNodeCreditBound(g, set).LowerBound
	case BnEdge:
		row.CreditLB = expansion.BnEdgeCreditBound(g, set).LowerBound
	case BnNode:
		row.CreditLB = expansion.BnNodeCreditBound(g, set).LowerBound
	}
	row.TheoryLB, row.TheoryUB = theoryBounds(kind, row.K)
	return row, set
}

func theoryBounds(kind ExpansionKind, k int) (lo, hi float64) {
	cl, cu := kind.Constants()
	logK := 0.0
	for x := k; x > 1; x >>= 1 {
		logK++
	}
	if logK == 0 {
		logK = 1
	}
	return cl * float64(k) / logK, cu * float64(k) / logK
}

// expansionExactAffordable is a coarse budget on the subset enumeration:
// roughly C(N,k) states after pruning; we cap by N and k.
func expansionExactAffordable(nodes, k, budget, kmax int) bool {
	if budget <= 0 {
		return false
	}
	return nodes <= budget && k <= kmax
}

// RenderExpansionTable renders rows for one kind.
func RenderExpansionTable(rows []ExpansionRow) string {
	if len(rows) == 0 {
		return ""
	}
	title := fmt.Sprintf("%s: witness upper bound vs credit-certified lower bound (§4.3)", rows[0].Kind)
	t := tablefmt.New(title,
		"n", "d", "k", "exact", "exact?", "explored", "credit LB", "witness UB", "lemma formula", "c_lo·k/log k", "c_hi·k/log k")
	for _, r := range rows {
		t.AddRow(r.N, r.D, r.K, fmtOrDash(r.Exact),
			fmtExactFlag(r.Exact, r.ExactComplete), fmtExplored(r.Exact, r.Explored),
			r.CreditLB, r.WitnessUB, r.WitnessFormula, r.TheoryLB, r.TheoryUB)
	}
	return t.String()
}
