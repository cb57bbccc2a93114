package exact

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/solve"
)

// The shard-level entry points below expose the expansion engine's prefix
// jobs as an externally schedulable unit of work: one EE/NE search splits
// at shardDepth into independent prefix shards, and SearchExpansionShards
// runs any subset of them against a ShardIncumbent that can be tightened
// from outside while the search runs. internal/cluster uses this to
// distribute one search across peers — every peer prunes against the
// globally best witness seen so far (gossiped bound tightening), and a
// shard that a straggler never finishes can be re-run elsewhere, since
// shards are pure functions of (graph, spec, shard id).

// metricOffersRejected counts Offer calls whose witness did not achieve
// the claimed value (wrong size, bad or repeated node ids, missing root,
// or a different boundary).
var metricOffersRejected = obs.NewCounter("exact.offers_rejected")

// ExpansionShardSpec identifies one distributable expansion search: which
// quantity (edge or node boundary), the set size k and an optional forced
// root (Root ≥ 0: exact on vertex-transitive networks, an upper bound
// elsewhere).
type ExpansionShardSpec struct {
	K    int
	Edge bool
	// Root < 0 searches all k-sets; Root ≥ 0 forces that node into S.
	Root int
}

// Validate rejects specs no shard search can run.
func (s ExpansionShardSpec) Validate(g *graph.Graph) error {
	if s.K < 1 || s.K > g.N()-1 {
		return fmt.Errorf("exact: shard spec k=%d out of range [1, %d]", s.K, g.N()-1)
	}
	if s.Root >= g.N() {
		return fmt.Errorf("exact: shard spec root %d out of range (n=%d)", s.Root, g.N())
	}
	return nil
}

func (s ExpansionShardSpec) prefixes(g *graph.Graph) [][]int8 {
	return expansionPrefixes(g.N(), shardDepth(g.N()), s.K, s.Root >= 0)
}

// ExpansionShardCount returns how many prefix shards spec fans out into on
// g. Shard ids 0..count-1 index the same deterministic enumeration on
// every party that agrees on (g, spec).
func ExpansionShardCount(g *graph.Graph, spec ExpansionShardSpec) int {
	return len(spec.prefixes(g))
}

// ShardIncumbent is the shared incumbent of one distributed expansion
// search: the best (value, witness) pair seen so far, tightened both by
// local leaf improvements and by Offer calls carrying remote witnesses.
// All methods are safe for concurrent use; one incumbent serves every
// SearchExpansionShards call of the same logical search on this process.
type ShardIncumbent struct {
	g    *graph.Graph
	spec ExpansionShardSpec
	sb   sharedExpBound
}

// NewShardIncumbent builds the incumbent of one (g, spec) search, starting
// one past the trivial maximum of the quantity (so the first feasible leaf
// always records). onImprove, when non-nil, receives every *locally* found
// improvement — value plus a private copy of the witness — and is the
// cluster's gossip hook; bounds injected via Offer do not echo through it.
func NewShardIncumbent(g *graph.Graph, spec ExpansionShardSpec, onImprove func(val int, set []int)) *ShardIncumbent {
	si := &ShardIncumbent{g: g, spec: spec}
	si.sb.best.Store(initialExpBest(g, spec.Edge, noBound))
	si.sb.onRecord = onImprove
	return si
}

// Offer injects an incumbent achieved elsewhere. The witness must be K
// distinct in-range nodes, including the root of a rooted search, whose
// recounted boundary is val; any other offer is rejected (and counted in
// exact.offers_rejected), so a corrupt or lying peer can never make the
// search prune away the true optimum. A valid offer tightens the bound
// (and adopts the witness) only if val strictly improves on the current
// best, so a stale or duplicated gossip message can never loosen the
// search — incumbent monotonicity holds under arbitrary message loss,
// reordering and replay. It reports whether the bound moved.
func (si *ShardIncumbent) Offer(val int, set []int) bool {
	if !si.achieves(val, set) {
		metricOffersRejected.Inc()
		return false
	}
	return si.sb.offer(val, set)
}

// achieves reports whether set is a feasible witness of the search with
// boundary exactly val.
func (si *ShardIncumbent) achieves(val int, set []int) bool {
	if len(set) != si.spec.K {
		return false
	}
	seen := make([]bool, si.g.N())
	for _, v := range set {
		if v < 0 || v >= si.g.N() || seen[v] {
			return false
		}
		seen[v] = true
	}
	if si.spec.Root >= 0 && !seen[si.spec.Root] {
		return false
	}
	return boundary(si.g, set, si.spec.Edge) == val
}

// Best returns the current incumbent value and a copy of its witness (nil
// when nothing feasible has been seen yet).
func (si *ShardIncumbent) Best() (int, []int) {
	si.sb.mu.Lock()
	defer si.sb.mu.Unlock()
	if si.sb.set == nil {
		return int(si.sb.best.Load()), nil
	}
	set := make([]int, len(si.sb.set))
	copy(set, si.sb.set)
	return int(si.sb.best.Load()), set
}

// ShardOutcome reports one SearchExpansionShards call. Complete means
// every requested shard ran to exhaustion (nothing was abandoned on
// cancellation); only complete outcomes may count toward a certificate.
// Explored/Pruned are read from the monitor when one is supplied.
type ShardOutcome struct {
	Complete bool
	Explored int64
	Pruned   int64
}

// SearchExpansionShards runs the prefix shards named by ids (indices into
// the (g, spec) enumeration) on workers goroutines (≤0: GOMAXPROCS),
// pruning against and recording into si. Out-of-range ids panic — they
// mean the parties disagree about the search geometry, which would
// silently miscertify. Each shard is one job of the expansion engine, so
// the union of all shards over any number of calls and processes covers
// the same leaves as one SolveEdge/NodeExpansion run.
func SearchExpansionShards(g *graph.Graph, spec ExpansionShardSpec, ids []int, workers int, si *ShardIncumbent, mon *solve.Monitor) ShardOutcome {
	if err := spec.Validate(g); err != nil {
		panic(err.Error())
	}
	prefixes := spec.prefixes(g)
	// The jobs share the caller's incumbent — that is the whole point of
	// the shard API — but completeness is tracked per call: a peer running
	// two batches concurrently must not let one batch's cancellation
	// uncertify the other.
	s := &expSearch{k: spec.K, edge: spec.Edge, sb: &si.sb}
	jobs := make([]expJob, len(ids))
	for i, id := range ids {
		if id < 0 || id >= len(prefixes) {
			panic(fmt.Sprintf("exact: shard id %d out of range [0, %d)", id, len(prefixes)))
		}
		jobs[i] = expJob{s: s, prefix: prefixes[id]}
	}
	exploredBefore, prunedBefore := mon.Explored(), mon.Pruned()
	runExpansionJobs(g, expansionOrder(g, spec.Root), jobs, spec.Root >= 0, workers, mon)
	return ShardOutcome{
		Complete: !s.incomplete.Load(),
		Explored: mon.Explored() - exploredBefore,
		Pruned:   mon.Pruned() - prunedBefore,
	}
}
