package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/route"
)

// queryRequest is one parsed, validated API request. Key is its canonical
// identity — defaults filled in, parameters in a fixed order — so the
// cache and the coalescing group see through spelling differences
// (&n=8&network=bn vs &network=bn&n=8, explicit vs defaulted values).
// The solve budget (timeout) is deliberately not part of the identity:
// only complete answers are cached, and a complete answer is the same
// under any budget.
type queryRequest interface {
	Key() string
	Solve(ctx context.Context, s *Server) (*obs.Manifest, error)
}

// queryValues wraps url.Values with defaulting, validating accessors.
type queryValues url.Values

// allow rejects parameters outside the endpoint's vocabulary, so a typo
// ("trails=1000") fails loudly instead of silently running the default.
func (q queryValues) allow(names ...string) error {
	allowed := make(map[string]bool, len(names))
	for _, n := range names {
		allowed[n] = true
	}
	var unknown []string
	for name := range q {
		if !allowed[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return fmt.Errorf("unknown parameter %q (known: %s)", unknown[0], strings.Join(names, ", "))
}

func (q queryValues) str(name, def string) string {
	if vs := q[name]; len(vs) > 0 && vs[0] != "" {
		return vs[0]
	}
	return def
}

func (q queryValues) intVal(name string, def int) (int, error) {
	raw := q.str(name, "")
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("%s: %q is not an integer", name, raw)
	}
	return v, nil
}

func (q queryValues) int64Val(name string, def int64) (int64, error) {
	raw := q.str(name, "")
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %q is not an integer", name, raw)
	}
	return v, nil
}

func (q queryValues) boolVal(name string, def bool) (bool, error) {
	raw := q.str(name, "")
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("%s: %q is not a boolean", name, raw)
	}
	return v, nil
}

// deadline resolves the request's solve budget: the timeout parameter
// (Go duration syntax), defaulted to def and capped — never rejected — at
// max, mirroring how a CLI -timeout above the wall clock just means "all
// the time there is".
func (q queryValues) deadline(def, max time.Duration) (time.Duration, error) {
	raw := q.str("timeout", "")
	if raw == "" {
		return def, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("timeout: %q is not a duration (want e.g. 500ms, 5s)", raw)
	}
	if d <= 0 {
		return 0, fmt.Errorf("timeout: must be positive (got %s)", raw)
	}
	if d > max {
		d = max
	}
	return d, nil
}

// floatVal parses one float parameter.
func (q queryValues) floatVal(name string, def float64) (float64, error) {
	raw := q.str(name, "")
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %q is not a number", name, raw)
	}
	return v, nil
}

// floatList parses a comma-separated float list ("0,0.05,0.1").
func (q queryValues) floatList(name string, def []float64) ([]float64, error) {
	raw := q.str(name, "")
	if raw == "" {
		return def, nil
	}
	parts := strings.Split(raw, ",")
	vals := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %q is not a number list", name, raw)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// dimList parses a comma-separated dimension list ("1,2,3").
func (q queryValues) dimList(name string, def []int) ([]int, error) {
	raw := q.str(name, "")
	if raw == "" {
		return def, nil
	}
	parts := strings.Split(raw, ",")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("%s: %q is not an integer list", name, raw)
		}
		dims = append(dims, v)
	}
	return dims, nil
}

func powerOfTwoInRange(name string, v, lo, hi int) error {
	if v < lo || v > hi || v&(v-1) != 0 {
		return fmt.Errorf("%s: must be a power of two in [%d, %d] (got %d)", name, lo, hi, v)
	}
	return nil
}

// ---- /v1/bisection ----

// bisectionRequest answers BW queries on one network instance: the same
// rows bwtable prints, one network per request.
type bisectionRequest struct {
	network    string // "bn" | "wn" | "ccc"
	n          int
	exactNodes int
}

func parseBisectionRequest(q queryValues) (queryRequest, error) {
	if err := q.allow("network", "n", "exact-nodes", "timeout"); err != nil {
		return nil, err
	}
	r := &bisectionRequest{network: q.str("network", "bn")}
	var err error
	if r.n, err = q.intVal("n", 0); err != nil {
		return nil, err
	}
	if r.exactNodes, err = q.intVal("exact-nodes", 32); err != nil {
		return nil, err
	}
	if r.exactNodes < 0 || r.exactNodes > 4096 {
		return nil, fmt.Errorf("exact-nodes: must be in [0, 4096] (got %d)", r.exactNodes)
	}
	switch r.network {
	case "bn":
		// Large sizes stay cheap: the constructed row is always verified
		// by the word-parallel virtual evaluator, and the graph is built
		// only for the small sizes the exact or heuristic solve searches,
		// so million-column butterflies are servable.
		err = powerOfTwoInRange("n", r.n, 2, 1<<22)
	case "wn":
		err = powerOfTwoInRange("n", r.n, 4, 1<<14)
	case "ccc":
		err = powerOfTwoInRange("n", r.n, 8, 1<<14)
	default:
		err = fmt.Errorf("network: want bn, wn or ccc (got %q)", r.network)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (r *bisectionRequest) Key() string {
	return fmt.Sprintf("network=%s&n=%d&exact-nodes=%d", r.network, r.n, r.exactNodes)
}

func (r *bisectionRequest) Solve(ctx context.Context, s *Server) (*obs.Manifest, error) {
	budget := core.BisectionBudget{
		ExactNodes: r.exactNodes,
		Ctx:        ctx,
		Trace:      s.cfg.Trace,
	}
	m := obs.NewManifest("butterflyd")
	var rep core.BisectionReport
	var err error
	switch r.network {
	case "bn":
		rep, err = core.ButterflyBisection(r.n, budget)
		if err != nil {
			return nil, err
		}
	case "wn":
		rep = core.WrappedBisection(r.n, budget)
	case "ccc":
		rep = core.CCCBisection(r.n, budget)
	}
	m.AddTable("bisection."+r.network, rep.TheoryLabel, []core.BisectionReport{rep})
	return m, nil
}

// ---- /v1/expansion ----

// expansionRequest answers one §4.3 expansion table: witness upper
// bounds, credit-certified lower bounds, and exact optima where the
// budget allows.
type expansionRequest struct {
	kind       core.ExpansionKind
	n          int
	dims       []int
	exactNodes int
	kmax       int
}

func parseExpansionRequest(q queryValues) (queryRequest, error) {
	if err := q.allow("kind", "n", "d", "exact-nodes", "kmax", "timeout"); err != nil {
		return nil, err
	}
	r := &expansionRequest{}
	kind, err := core.ParseExpansionKind(q.str("kind", ""))
	if err != nil {
		return nil, fmt.Errorf("kind: want ee_wn, ne_wn, ee_bn or ne_bn")
	}
	r.kind = kind
	if r.n, err = q.intVal("n", 0); err != nil {
		return nil, err
	}
	if err = powerOfTwoInRange("n", r.n, 8, 4096); err != nil {
		return nil, err
	}
	maxDim := core.MaxWitnessDim(r.kind, r.n)
	if maxDim < 1 {
		return nil, fmt.Errorf("n: %d is too small for %s witnesses", r.n, r.kind)
	}
	defDims := make([]int, 0, 4)
	for d := 1; d <= maxDim && d <= 4; d++ {
		defDims = append(defDims, d)
	}
	if r.dims, err = q.dimList("d", defDims); err != nil {
		return nil, err
	}
	for _, d := range r.dims {
		if d < 1 || d > maxDim {
			return nil, fmt.Errorf("d: witness dimension %d out of range [1, %d] for %s on n=%d", d, maxDim, r.kind, r.n)
		}
	}
	if r.exactNodes, err = q.intVal("exact-nodes", 32); err != nil {
		return nil, err
	}
	if r.exactNodes < 0 || r.exactNodes > 4096 {
		return nil, fmt.Errorf("exact-nodes: must be in [0, 4096] (got %d)", r.exactNodes)
	}
	if r.kmax, err = q.intVal("kmax", 8); err != nil {
		return nil, err
	}
	if r.kmax < 1 || r.kmax > 32 {
		return nil, fmt.Errorf("kmax: must be in [1, 32] (got %d)", r.kmax)
	}
	return r, nil
}

func (r *expansionRequest) Key() string {
	dims := make([]string, len(r.dims))
	for i, d := range r.dims {
		dims[i] = strconv.Itoa(d)
	}
	return fmt.Sprintf("kind=%s&n=%d&d=%s&exact-nodes=%d&kmax=%d",
		r.kind.Slug(), r.n, strings.Join(dims, ","), r.exactNodes, r.kmax)
}

func (r *expansionRequest) Solve(ctx context.Context, s *Server) (*obs.Manifest, error) {
	rows := core.ExpansionTable(r.kind, r.n, r.dims, core.ExpansionTableOptions{
		ExactNodes: r.exactNodes,
		KMax:       r.kmax,
		Ctx:        ctx,
		Trace:      s.cfg.Trace,
	})
	m := obs.NewManifest("butterflyd")
	m.AddTable("expansion."+r.kind.Slug(), fmt.Sprintf("%s (§4.3)", r.kind), rows)
	return m, nil
}

// ---- /v1/routing ----

// routingRequest answers E8 Monte-Carlo rows: multi-trial routing on Bn
// against the bisection-bound floor, optionally under the fault model —
// lossy links (drop accepts a comma-separated rate list, producing the
// whole degradation curve in one query), bounded retransmission, dead
// links, adversarial patterns, and cut-through switching.
type routingRequest struct {
	kind        route.TrialKind
	n           int
	trials      int
	seed        int64
	drops       []float64
	dead        float64
	retransmits int
	switching   route.Switching
}

func parseRoutingRequest(q queryValues) (queryRequest, error) {
	if err := q.allow("kind", "n", "trials", "seed", "drop", "dead", "retransmits", "switching", "timeout"); err != nil {
		return nil, err
	}
	r := &routingRequest{}
	kind, err := route.ParseTrialKind(q.str("kind", "random"))
	if err != nil {
		return nil, fmt.Errorf("kind: want random, permutation, hotspot or bitreversal (got %q)", q.str("kind", "random"))
	}
	r.kind = kind
	if r.n, err = q.intVal("n", 0); err != nil {
		return nil, err
	}
	if err = powerOfTwoInRange("n", r.n, 2, 4096); err != nil {
		return nil, err
	}
	if r.trials, err = q.intVal("trials", 25); err != nil {
		return nil, err
	}
	if r.trials < 1 || r.trials > 100000 {
		return nil, fmt.Errorf("trials: must be in [1, 100000] (got %d)", r.trials)
	}
	if r.seed, err = q.int64Val("seed", 1); err != nil {
		return nil, err
	}
	if r.drops, err = q.floatList("drop", []float64{0}); err != nil {
		return nil, err
	}
	if len(r.drops) > 16 {
		return nil, fmt.Errorf("drop: at most 16 rates per sweep (got %d)", len(r.drops))
	}
	if r.dead, err = q.floatVal("dead", 0); err != nil {
		return nil, err
	}
	if r.retransmits, err = q.intVal("retransmits", 0); err != nil {
		return nil, err
	}
	sw, err := route.ParseSwitching(q.str("switching", "sf"))
	if err != nil {
		return nil, err
	}
	r.switching = sw
	for _, p := range r.drops {
		f := route.FaultOptions{DropProb: p, DeadLinkProb: r.dead, MaxRetransmits: r.retransmits}
		if err := f.Validate(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// faulty reports whether the request leaves the healthy single-row path:
// any fault knob set, a drop sweep, or a non-default switch discipline.
func (r *routingRequest) faulty() bool {
	return len(r.drops) > 1 || r.drops[0] > 0 || r.dead > 0 ||
		r.retransmits > 0 || r.switching != route.StoreAndForward
}

func (r *routingRequest) Key() string {
	drops := make([]string, len(r.drops))
	for i, p := range r.drops {
		drops[i] = strconv.FormatFloat(p, 'g', -1, 64)
	}
	return fmt.Sprintf("kind=%s&n=%d&trials=%d&seed=%d&drop=%s&dead=%s&retransmits=%d&switching=%s",
		r.kind.Slug(), r.n, r.trials, r.seed, strings.Join(drops, ","),
		strconv.FormatFloat(r.dead, 'g', -1, 64), r.retransmits, r.switching.Slug())
}

func (r *routingRequest) Solve(ctx context.Context, s *Server) (*obs.Manifest, error) {
	opt := core.RoutingOptions{
		Trials: r.trials, Ctx: ctx, Trace: s.cfg.Trace,
		Fault:     route.FaultOptions{DeadLinkProb: r.dead, MaxRetransmits: r.retransmits},
		Switching: r.switching,
	}
	rows := core.RoutingDegradation(r.n, r.seed, r.kind, r.drops, opt)
	converged, exhausted := 0, 0
	for _, rep := range rows {
		converged += rep.Stats.Trials
		exhausted += rep.Stats.ExhaustedTrials
	}
	if converged == 0 && exhausted > 0 {
		// Every requested trial hit the step limit: there is no aggregate
		// to serve. 422 — the parameters were valid but unprocessable at
		// this fault intensity; a panic here used to kill the daemon.
		return nil, &httpError{http.StatusUnprocessableEntity,
			fmt.Sprintf("all %d trials exhausted the %s step limit; lower drop or bound retransmits", exhausted, "64·N")}
	}
	m := obs.NewManifest("butterflyd")
	m.Seed = r.seed
	table := "routing." + r.kind.Slug()
	title := "E8: routing vs bisection bound (§1.2)"
	if r.faulty() {
		table = "routing.faults"
		title = "E8: routing under faults (§1.2 degradation)"
	}
	m.AddTable(table, title, rows)
	return m, nil
}

// ---- /v1/report ----

// reportRequest answers the full E1–E17 reproduction as one manifest —
// the paperrepro -json document, served.
type reportRequest struct {
	quick bool
	seed  int64
}

func parseReportRequest(q queryValues) (queryRequest, error) {
	if err := q.allow("quick", "seed", "timeout"); err != nil {
		return nil, err
	}
	r := &reportRequest{}
	var err error
	if r.quick, err = q.boolVal("quick", true); err != nil {
		return nil, err
	}
	if r.seed, err = q.int64Val("seed", 1); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *reportRequest) Key() string {
	return fmt.Sprintf("quick=%t&seed=%d", r.quick, r.seed)
}

func (r *reportRequest) Solve(ctx context.Context, s *Server) (*obs.Manifest, error) {
	rep, err := core.BuildFullReport(core.ReportOptions{
		Quick: r.quick,
		Seed:  r.seed,
		Ctx:   ctx,
		Trace: s.cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	m := obs.NewManifest("butterflyd")
	m.Seed = r.seed
	rep.AppendManifestTables(m)
	return m, nil
}
