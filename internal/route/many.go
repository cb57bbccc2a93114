package route

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitutil"
	"repro/internal/cut"
	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/topology"
)

// Registry metrics of the Monte-Carlo engine: observed once per trial
// (never inside the per-step simulation loop, which stays 0-alloc and
// atomic-free).
var (
	metricTrialsCompleted = obs.NewCounter("route.trials_completed")
	metricTrialsDiscarded = obs.NewCounter("route.trials_discarded")
	metricTrialsExhausted = obs.NewCounter("route.trials_exhausted")
	metricTrialSteps      = obs.NewHistogram("route.trial_steps")
	metricTrialMaxQueue   = obs.NewHistogram("route.trial_max_queue")
)

// TrialKind selects the workload SimulateMany draws each trial from. Every
// kind routes on Bn.
type TrialKind int

const (
	// RandomDestinations routes one packet from every node of Bn to a
	// uniform random node along three-leg up/across/down routes.
	RandomDestinations TrialKind = iota
	// RandomPermutations routes a uniform random input→output permutation
	// of Bn along the monotone paths of Lemma 2.3.
	RandomPermutations
	// HotSpotDestinations routes a packet from every node of Bn to one
	// uniform random hot node — the adversarial all-to-one pattern that
	// serializes on the hot node's in-edges regardless of bisection.
	HotSpotDestinations
	// BitReversalDestinations routes node ⟨w,l⟩ of Bn to ⟨reverse(w),l⟩,
	// the classic adversarial permutation for greedy column routing. The
	// traffic is deterministic; seeds only vary the fault plan.
	BitReversalDestinations
)

func (k TrialKind) String() string {
	switch k {
	case RandomDestinations:
		return "random destinations"
	case RandomPermutations:
		return "random permutations"
	case HotSpotDestinations:
		return "hot-spot destinations"
	case BitReversalDestinations:
		return "bit-reversal destinations"
	}
	return fmt.Sprintf("TrialKind(%d)", int(k))
}

// Slug is the short machine-readable name used in manifests, cache keys
// and query parameters.
func (k TrialKind) Slug() string {
	switch k {
	case RandomDestinations:
		return "random"
	case RandomPermutations:
		return "permutation"
	case HotSpotDestinations:
		return "hotspot"
	case BitReversalDestinations:
		return "bitreversal"
	}
	return fmt.Sprintf("kind%d", int(k))
}

// ParseTrialKind resolves a slug (as produced by Slug) to a TrialKind.
func ParseTrialKind(s string) (TrialKind, error) {
	switch s {
	case "random":
		return RandomDestinations, nil
	case "permutation":
		return RandomPermutations, nil
	case "hotspot":
		return HotSpotDestinations, nil
	case "bitreversal":
		return BitReversalDestinations, nil
	}
	return RandomDestinations, fmt.Errorf("trial kind: want random, permutation, hotspot or bitreversal (got %q)", s)
}

// ManyOptions configures SimulateMany. The zero value runs one trial on
// all available cores with tightness factor 2.
type ManyOptions struct {
	// Trials is the number of independently seeded trials (≤0: 1).
	Trials int
	// Workers is the number of worker goroutines (≤0: GOMAXPROCS).
	Workers int
	// Seed is the base seed; trial t runs on bitutil.SubSeed(Seed, t), so
	// the aggregate is reproducible at any worker count.
	Seed int64
	// TightFactor is the §1.2 tightness threshold: a trial is counted
	// tight when Steps ≤ TightFactor · CongestionBound (≤0: 2).
	TightFactor float64

	// Fault injects link faults into every trial; the zero value is the
	// healthy network and leaves the trial byte-identical to a run
	// without any fault model. Fault must validate (see
	// FaultOptions.Validate) — surface layers reject bad values first, so
	// an invalid value here panics.
	Fault FaultOptions
	// Switching selects the switch discipline (default store-and-forward).
	Switching Switching

	// Ctx cancels the run: in-flight trials stop mid-simulation and are
	// discarded; the aggregate covers only the trials that completed
	// (TrialStats.Cancelled is set, Trials < Requested). nil means never
	// cancelled.
	Ctx context.Context
	// OnProgress, when non-nil, receives progress snapshots (Explored =
	// completed trials) every ProgressInterval (≤ 0: 1s).
	OnProgress       func(solve.Progress)
	ProgressInterval time.Duration
	// Label names the simulation in progress lines and trace spans.
	Label string
	// Trace, when non-nil, receives one "trial" event per completed trial
	// (seed, steps, bound, max queue) on the simulation's span.
	Trace *obs.Tracer
}

// TrialStats aggregates the Monte-Carlo trials of one SimulateMany call.
// Ratios compare simulated Steps against the certified congestion bound
// ⌈crossings/capacity⌉, the per-trial form of the §1.2 lower bound
// time ≥ N/(4·BW); ratio fields stay zero when no trial had a positive
// bound (e.g. with a nil reference cut).
// The JSON tags make TrialStats the machine-readable §1.2 record of the
// run manifests: the steps/bound ratios and the max-queue histogram are
// regression-checkable fields, not just printed columns.
type TrialStats struct {
	// Trials counts the trials the aggregate actually covers; Requested
	// is what the caller asked for. They differ only when the run was
	// cancelled (Cancelled true), in which case the aggregate is over the
	// completed prefix of trials only — valid statistics, smaller sample.
	Trials    int  `json:"trials"`
	Requested int  `json:"requested"`
	Cancelled bool `json:"cancelled,omitempty"`

	// ExhaustedTrials counts trials that hit the step limit without
	// finishing. They are excluded from every other aggregate (their
	// steps and counters are partial), so Trials covers only trials that
	// ran to completion: Trials + ExhaustedTrials ≤ Requested.
	ExhaustedTrials int `json:"exhausted_trials,omitempty"`

	TotalPackets int64   `json:"total_packets"`
	MeanPackets  float64 `json:"mean_packets"`

	// Fault-model aggregates over the completed trials. DeliveredRate is
	// TotalDelivered/TotalPackets — 1 on a healthy network; the
	// degradation a fault scenario buys is read directly off it.
	TotalDelivered   int64   `json:"total_delivered"`
	TotalDropped     int64   `json:"total_dropped,omitempty"`
	TotalRetransmits int64   `json:"total_retransmits,omitempty"`
	DeliveredRate    float64 `json:"delivered_rate"`
	MeanDropped      float64 `json:"mean_dropped,omitempty"`
	MeanRetransmits  float64 `json:"mean_retransmits,omitempty"`
	MeanDeadLinks    float64 `json:"mean_dead_links,omitempty"`

	MinSteps  int     `json:"min_steps"`
	MaxSteps  int     `json:"max_steps"`
	MeanSteps float64 `json:"mean_steps"`

	MeanCrossings float64 `json:"mean_crossings"`

	MinBound  int     `json:"min_bound"`
	MaxBound  int     `json:"max_bound"`
	MeanBound float64 `json:"mean_bound"`

	// MinRatio/MeanRatio/MaxRatio summarize Steps/CongestionBound over
	// the trials with a positive bound.
	MinRatio  float64 `json:"min_ratio"`
	MeanRatio float64 `json:"mean_ratio"`
	MaxRatio  float64 `json:"max_ratio"`

	// TightTrials counts trials with Steps ≤ TightFactor·CongestionBound:
	// runs where greedy store-and-forward sits within TightFactor of the
	// bisection bound.
	TightFactor float64 `json:"tight_factor"`
	TightTrials int     `json:"tight_trials"`

	// MaxQueuePeak/MeanMaxQueue/MaxQueueHist describe the distribution of
	// the per-trial worst queue length. The histogram marshals with
	// numerically sorted keys, so two manifests diff cleanly.
	MaxQueuePeak int         `json:"max_queue_peak"`
	MeanMaxQueue float64     `json:"mean_max_queue"`
	MaxQueueHist map[int]int `json:"max_queue_hist"`
}

// SimulateMany fans opt.Trials independently seeded trials of kind over
// solve.Run's workers. Each worker owns one reusable simState, so the
// steady state allocates nothing per trial; results land in a per-trial
// slice indexed by trial number, so the aggregate is byte-identical at
// any worker count. A worker's panic is re-raised on the caller.
// Each trial's simulated time is bounded at 64·N steps, far above any
// convergent schedule on a healthy network; a trial that reaches it
// completes with Exhausted set and is counted in TrialStats.ExhaustedTrials
// — never a panic: heavy drop rates with unbounded retransmission make
// non-convergence a legitimate outcome.
func SimulateMany(b *topology.Butterfly, ref *cut.Cut, kind TrialKind, opt ManyOptions) TrialStats {
	if err := checkTrial(kind, b); err != nil {
		panic(err.Error())
	}
	trials := max(opt.Trials, 1)
	maxSteps := defaultMaxSteps(b)
	tight := opt.TightFactor
	if tight <= 0 {
		tight = 2
	}

	mon := solve.Start(solve.Options{
		Ctx:        opt.Ctx,
		OnProgress: opt.OnProgress,
		Interval:   opt.ProgressInterval,
		Name:       opt.Label,
		Trace:      opt.Trace,
	})
	defer mon.Close()

	results := make([]SimResult, trials)
	completed := make([]bool, trials)
	jobs := make([]int, trials)
	for t := range jobs {
		jobs[t] = t
	}
	// One simState per worker, so no more workers than trials.
	states := make([]*simState, min(solve.Workers(opt.Workers), trials))
	defer func() {
		for _, st := range states {
			if st != nil {
				putState(st)
			}
		}
	}()
	solve.Run(jobs, len(states), func(w int, _ *solve.Queue[int]) func(int) {
		st := getState(b)
		states[w] = st
		st.setCut(ref)
		st.setScenario(opt.Fault, opt.Switching)
		return func(t int) {
			if mon.Stopped() {
				return
			}
			seed := bitutil.SubSeed(opt.Seed, t)
			st.compileKind(kind, seed)
			st.seedFaults(seed)
			res, ok := st.runMonitored(maxSteps, mon)
			if !ok {
				metricTrialsDiscarded.Inc()
				return // interrupted mid-trial; discard the partial run
			}
			results[t] = res
			completed[t] = true
			if res.Exhausted {
				metricTrialsExhausted.Inc()
			} else {
				metricTrialsCompleted.Inc()
				metricTrialSteps.Observe(int64(res.Steps))
				metricTrialMaxQueue.Observe(int64(res.MaxQueue))
			}
			if mon.Tracing() {
				mon.TraceEvent("trial", obs.Attrs{
					"trial":     t,
					"seed":      seed,
					"steps":     res.Steps,
					"bound":     res.CongestionBound,
					"max_queue": res.MaxQueue,
					"crossings": res.CutCrossings,
					"delivered": res.Delivered,
					"dropped":   res.Dropped,
					"exhausted": res.Exhausted,
				})
			}
			mon.Tick(1, 0)
		}
	})
	return aggregateTrials(results, completed, tight, trials, mon.Stopped())
}

// aggregateTrials folds the completed trials into a TrialStats. Cancelled
// runs aggregate only the trials that finished; a run cancelled before
// any trial completed returns an empty (but well-formed) aggregate.
func aggregateTrials(results []SimResult, completed []bool, tight float64, requested int, cancelled bool) TrialStats {
	s := TrialStats{
		Requested:    requested,
		Cancelled:    cancelled,
		TightFactor:  tight,
		MaxQueueHist: make(map[int]int),
	}
	var sumSteps, sumCross, sumBound, sumQueue int64
	var sumDead int64
	var sumRatio float64
	ratios := 0
	for i, r := range results {
		if !completed[i] {
			continue
		}
		if r.Exhausted {
			// Step-limited trials carry partial counters; counting them
			// into the aggregates would skew every mean, so they are only
			// tallied here.
			s.ExhaustedTrials++
			continue
		}
		if s.Trials == 0 {
			s.MinSteps = r.Steps
			s.MinBound = r.CongestionBound
		}
		s.Trials++
		s.TotalPackets += int64(r.Packets)
		s.TotalDelivered += int64(r.Delivered)
		s.TotalDropped += int64(r.Dropped)
		s.TotalRetransmits += int64(r.Retransmits)
		sumDead += int64(r.DeadLinks)
		sumSteps += int64(r.Steps)
		sumCross += int64(r.CutCrossings)
		sumBound += int64(r.CongestionBound)
		sumQueue += int64(r.MaxQueue)
		if r.Steps < s.MinSteps {
			s.MinSteps = r.Steps
		}
		if r.Steps > s.MaxSteps {
			s.MaxSteps = r.Steps
		}
		if r.CongestionBound < s.MinBound {
			s.MinBound = r.CongestionBound
		}
		if r.CongestionBound > s.MaxBound {
			s.MaxBound = r.CongestionBound
		}
		if r.MaxQueue > s.MaxQueuePeak {
			s.MaxQueuePeak = r.MaxQueue
		}
		s.MaxQueueHist[r.MaxQueue]++
		if r.CongestionBound > 0 {
			ratio := float64(r.Steps) / float64(r.CongestionBound)
			if ratios == 0 || ratio < s.MinRatio {
				s.MinRatio = ratio
			}
			if ratio > s.MaxRatio {
				s.MaxRatio = ratio
			}
			sumRatio += ratio
			ratios++
			if float64(r.Steps) <= tight*float64(r.CongestionBound) {
				s.TightTrials++
			}
		}
	}
	if s.Trials > 0 {
		n := float64(s.Trials)
		s.MeanPackets = float64(s.TotalPackets) / n
		s.MeanSteps = float64(sumSteps) / n
		s.MeanCrossings = float64(sumCross) / n
		s.MeanBound = float64(sumBound) / n
		s.MeanMaxQueue = float64(sumQueue) / n
		s.MeanDropped = float64(s.TotalDropped) / n
		s.MeanRetransmits = float64(s.TotalRetransmits) / n
		s.MeanDeadLinks = float64(sumDead) / n
	}
	if s.TotalPackets > 0 {
		s.DeliveredRate = float64(s.TotalDelivered) / float64(s.TotalPackets)
	}
	if ratios > 0 {
		s.MeanRatio = sumRatio / float64(ratios)
	}
	return s
}
