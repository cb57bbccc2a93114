package exact

import (
	"context"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/solve"
)

// NotComputed marks a SurveyResult quantity that was not requested.
const NotComputed = -1

// SurveyResult holds the exact expansion values certified for one set
// size. Quantities not requested by the survey options are NotComputed.
// The *Exact flags report certification: a false flag means the survey
// was cancelled before that search completed, and the value/set pair is
// the best feasible incumbent found (an upper bound, not the optimum).
type SurveyResult struct {
	K     int
	EE    int   // exact min edge boundary over k-sets (NotComputed if skipped)
	EESet []int // a minimizing set for EE
	NE    int   // exact min neighbor count over k-sets (NotComputed if skipped)
	NESet []int // a minimizing set for NE

	EEExact bool // EE certified optimal (always true when uncancelled)
	NEExact bool // NE certified optimal
	// EEExplored/NEExplored and EEPruned/NEPruned count the
	// branch-and-bound nodes the corresponding search explored and the
	// subtrees its bound cut off (telemetry for tables and manifests).
	// EEExplored/EEPruned include the sweep's EE(g, m) table searches:
	// each counts toward the smallest requested k above its m.
	EEExplored int64
	NEExplored int64
	EEPruned   int64
	NEPruned   int64
}

// SurveyOptions tune ExpansionSurveyWithOptions.
type SurveyOptions struct {
	// EdgeOnly/NodeOnly restrict the survey to one quantity; with neither
	// (or both) set, both EE and NE are computed.
	EdgeOnly bool
	NodeOnly bool
	// EdgeSeed/NodeSeed return an achievable upper bound on EE(g,k) /
	// NE(g,k) used to seed that k's incumbent — typically a §4 witness
	// boundary or a greedy set from package heuristic. nil functions or
	// negative returns leave the search unseeded.
	EdgeSeed func(k int) int
	NodeSeed func(k int) int

	// Ctx cancels the survey: searches not yet complete return their
	// incumbents with the *Exact flags false. nil means never cancelled.
	Ctx context.Context
	// OnProgress, when non-nil, receives solve-wide Progress snapshots
	// every ProgressInterval (≤ 0: 1s).
	OnProgress       func(solve.Progress)
	ProgressInterval time.Duration
	// Label names the survey in progress lines and trace spans.
	Label string
	// Trace, when non-nil, receives the survey's span events.
	Trace *obs.Tracer
}

// ExpansionSurvey computes EE(g,k) and NE(g,k) exactly for every k in ks,
// batched: the BFS order is computed once, one sweep over m = 1, 2, …
// certifies EE(g, m) for the edge bound (a requested k is that sweep's
// step whenever the sweep shares root, and is never searched twice), and
// one run of the expansion engine then drains the remaining jobs jointly.
// root ≥ 0 forces that node into every set (exact on vertex-transitive
// networks, an upper bound elsewhere); root < 0 searches unrestricted.
// workers is the pool size as in SolveOptions.Workers.
func ExpansionSurvey(g *graph.Graph, ks []int, root, workers int) []SurveyResult {
	return ExpansionSurveyWithOptions(g, ks, root, workers, SurveyOptions{})
}

// ExpansionSurveyWithOptions is ExpansionSurvey with quantity selection,
// incumbent seeding, cancellation, and progress reporting.
func ExpansionSurveyWithOptions(g *graph.Graph, ks []int, root, workers int, opts SurveyOptions) []SurveyResult {
	if root >= g.N() {
		panic("exact: root out of range")
	}
	if root < 0 {
		root = -1
	}
	doEdge := !opts.NodeOnly || opts.EdgeOnly
	doNode := !opts.EdgeOnly || opts.NodeOnly

	mon := solve.Start(solve.Options{
		Ctx:        opts.Ctx,
		OnProgress: opts.OnProgress,
		Interval:   opts.ProgressInterval,
		Name:       opts.Label,
		Trace:      opts.Trace,
	})
	defer mon.Close()

	seedFor := func(f func(int) int, k int) int {
		if f == nil {
			return noBound
		}
		if b := f(k); b >= 0 {
			return b
		}
		return noBound
	}

	results := make([]SurveyResult, len(ks))
	var searches []*expSearch
	// target[i] points each search back at its result slot.
	var target []*SurveyResult
	for i, k := range ks {
		checkSetSize(g, k)
		r := &results[i]
		r.K, r.EE, r.NE = k, NotComputed, NotComputed
		if k == 0 || k == g.N() {
			if doEdge {
				r.EE, r.EESet, r.EEExact = 0, prefixSet(k), true
			}
			if doNode {
				r.NE, r.NESet, r.NEExact = 0, prefixSet(k), true
			}
			continue
		}
		if doEdge {
			searches = append(searches, newExpSearch(g, k, edgeExpansion, seedFor(opts.EdgeSeed, k), mon))
			target = append(target, r)
		}
		if doNode {
			searches = append(searches, newExpSearch(g, k, nodeExpansion, seedFor(opts.NodeSeed, k), mon))
			target = append(target, r)
		}
	}
	order := searchExpansion(g, root, searches, workers, mon)
	for i, s := range searches {
		set, val, exact := s.result(g, order)
		explored, pruned := s.sb.explored.Load(), s.sb.pruned.Load()
		if s.edge {
			target[i].EE, target[i].EESet = val, set
			target[i].EEExact, target[i].EEExplored = exact, explored
			target[i].EEPruned = pruned
		} else {
			target[i].NE, target[i].NESet = val, set
			target[i].NEExact, target[i].NEExplored = exact, explored
			target[i].NEPruned = pruned
		}
	}
	return results
}
