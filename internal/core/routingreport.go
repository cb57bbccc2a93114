package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/construct"
	"repro/internal/cut"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/tablefmt"
	"repro/internal/topology"
)

// RoutingOptions configures the Monte-Carlo side of the §1.2 experiments.
// The zero value runs a single trial on all available cores.
type RoutingOptions struct {
	// Trials is the number of independently seeded trials per row (≤0: 1).
	Trials int
	// Workers is the number of parallel trial workers (≤0: GOMAXPROCS).
	Workers int

	// Ctx cancels the simulation: the report covers only the trials that
	// completed (Stats.Cancelled set, Trials < Requested). nil means never
	// cancelled.
	Ctx context.Context
	// OnProgress, when non-nil, receives completed-trial counts every
	// second.
	OnProgress func(solve.Progress)
	// Trace, when non-nil, receives per-trial events on the simulation's
	// span.
	Trace *obs.Tracer

	// Fault injects link faults into every trial (zero: healthy network).
	Fault route.FaultOptions
	// Switching selects the switch discipline (default store-and-forward).
	Switching route.Switching
}

// RoutingReport is one row of the §1.2 experiment (E8): multi-trial
// random-destination (or random-permutation) routing on Bn measured
// against the bisection-width bound time ≥ crossings / C(S,S̄). The
// embedded TrialStats carries the full Monte-Carlo record — steps/bound
// ratios and the max-queue histogram included — so the §1.2 floor
// comparison is regression-checkable from the manifest alone.
type RoutingReport struct {
	N           int `json:"n"`
	Trials      int `json:"trials"`
	CutCapacity int `json:"cut_capacity"`
	// Pattern and Switching name the traffic kind and switch discipline
	// of the row (slugs: random/permutation/hotspot/bitreversal, sf/ct).
	Pattern   string `json:"pattern,omitempty"`
	Switching string `json:"switching,omitempty"`
	// Fault knobs of the row; zero values (healthy network) are omitted.
	DropProb       float64 `json:"drop_prob,omitempty"`
	DeadLinkProb   float64 `json:"dead_link_prob,omitempty"`
	MaxRetransmits int     `json:"max_retransmits,omitempty"`
	// Stats aggregates the trials: min/mean/max steps, the certified
	// congestion bounds, steps/bound ratios, the tightness count, and the
	// fault-model delivery/drop/retransmission record.
	Stats route.TrialStats `json:"stats"`
}

// RoutingExperiment runs one row of the §1.2 experiment (E8): opt.Trials
// trials of kind on Bn, independently seeded from seed and fanned over
// opt.Workers workers, measured against the best constructed bisection.
func RoutingExperiment(n int, seed int64, kind route.TrialKind, opt RoutingOptions) RoutingReport {
	return RoutingDegradation(n, seed, kind, []float64{opt.Fault.DropProb}, opt)[0]
}

// RoutingDegradation sweeps the drop rate at a fixed shape: one report
// row per rate in drops, all other knobs taken from opt. It is the
// measured degradation curve of ROADMAP's scenario-diversity item — mean
// steps and delivery rate versus link loss, each row still scored
// against the §1.2 N/(4·BW) floor. Bn and its reference cut are built
// once and shared by every rate.
func RoutingDegradation(n int, seed int64, kind route.TrialKind, drops []float64, opt RoutingOptions) []RoutingReport {
	b := topology.NewButterfly(n)
	// The class-grid plan needs n ≥ 4; for B2 (or any size the planner
	// rejects) the folklore column cut is the reference bisection.
	var ref *cut.Cut
	if plan, err := construct.BestPlan(n); err == nil {
		ref = plan.Build(b)
	} else {
		ref = construct.ColumnBisection(b)
	}
	capacity := ref.Capacity()
	reports := make([]RoutingReport, 0, len(drops))
	for _, p := range drops {
		fault := opt.Fault
		fault.DropProb = p
		stats := route.SimulateMany(b, ref, kind, route.ManyOptions{
			Trials:  opt.Trials,
			Workers: opt.Workers,
			Seed:    seed,
			Label:   fmt.Sprintf("routing B%d %s", n, kind),
			Trace:   opt.Trace,
			// Greedy store-and-forward empirically sits 3–5× above the
			// §1.2 floor, so a 4× threshold splits the trial distribution
			// instead of counting all or nothing.
			TightFactor: 4,
			Ctx:         opt.Ctx,
			OnProgress:  opt.OnProgress,
			Fault:       fault,
			Switching:   opt.Switching,
		})
		reports = append(reports, RoutingReport{
			N:              n,
			Trials:         stats.Trials,
			CutCapacity:    capacity,
			Pattern:        kind.Slug(),
			Switching:      opt.Switching.Slug(),
			DropProb:       p,
			DeadLinkProb:   fault.DeadLinkProb,
			MaxRetransmits: fault.MaxRetransmits,
			Stats:          stats,
		})
	}
	return reports
}

// RenderRoutingTable renders E8 reports with per-row trial aggregates.
func RenderRoutingTable(title string, reports []RoutingReport) string {
	tightHeader := "tight"
	if len(reports) > 0 && reports[0].Stats.TightFactor > 0 {
		tightHeader = fmt.Sprintf("tight ≤%g×", reports[0].Stats.TightFactor)
	}
	t := tablefmt.New(title,
		"n", "trials", "packets", "steps min/mean/max", "cut capacity",
		"crossings", "bound steps≥", "steps/bound", tightHeader, "max queue")
	for _, r := range reports {
		s := r.Stats
		trials := fmt.Sprintf("%d", r.Trials)
		if s.Cancelled {
			trials = fmt.Sprintf("%d of %d", s.Trials, s.Requested)
		}
		t.AddRow(r.N, trials,
			fmt.Sprintf("%.1f", s.MeanPackets),
			fmt.Sprintf("%d/%.1f/%d", s.MinSteps, s.MeanSteps, s.MaxSteps),
			r.CutCapacity,
			fmt.Sprintf("%.1f", s.MeanCrossings),
			fmt.Sprintf("%d/%.1f/%d", s.MinBound, s.MeanBound, s.MaxBound),
			fmt.Sprintf("%.2f", s.MeanRatio),
			fmt.Sprintf("%d/%d", s.TightTrials, s.Trials),
			s.MaxQueuePeak)
	}
	return t.String()
}

// RenderFaultRoutingTable renders fault-injected routing rows (one per
// scenario, typically a drop-rate sweep): the degradation table of mean
// steps, delivery rate, and steps/floor ratio versus link loss.
func RenderFaultRoutingTable(title string, reports []RoutingReport) string {
	t := tablefmt.New(title,
		"n", "pattern", "sw", "drop", "dead", "retx≤", "trials",
		"steps mean", "delivered", "dropped", "retransmits", "steps/bound", "exhausted")
	for _, r := range reports {
		s := r.Stats
		retx := "∞"
		if r.MaxRetransmits > 0 {
			retx = fmt.Sprintf("%d", r.MaxRetransmits)
		}
		t.AddRow(r.N, r.Pattern, r.Switching,
			fmt.Sprintf("%g", r.DropProb),
			fmt.Sprintf("%g", r.DeadLinkProb),
			retx,
			s.Trials,
			fmt.Sprintf("%.1f", s.MeanSteps),
			fmt.Sprintf("%.3f", s.DeliveredRate),
			fmt.Sprintf("%.1f", s.MeanDropped),
			fmt.Sprintf("%.1f", s.MeanRetransmits),
			fmt.Sprintf("%.2f", s.MeanRatio),
			s.ExhaustedTrials)
	}
	return t.String()
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
