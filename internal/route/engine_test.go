package route

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/cut"
	"repro/internal/topology"
)

// TestFlatMatchesReferenceRandomBn cross-checks the flat engine against
// the map-based reference on B3–B5: every field of SimResult must agree
// per seed.
func TestFlatMatchesReferenceRandomBn(t *testing.T) {
	for d := 3; d <= 5; d++ {
		b := topology.NewButterfly(1 << d)
		ref := columnCut(b)
		for seed := int64(0); seed < 10; seed++ {
			want := SimulateRandomDestinationsReference(b, ref, seed)
			got := SimulateRandomDestinations(b, ref, seed)
			if got != want {
				t.Errorf("B%d seed %d: flat %+v, reference %+v", d, seed, got, want)
			}
		}
		// The nil-cut path must agree too.
		if got, want := SimulateRandomDestinations(b, nil, 3), SimulateRandomDestinationsReference(b, nil, 3); got != want {
			t.Errorf("B%d nil cut: flat %+v, reference %+v", d, got, want)
		}
	}
}

func TestFlatMatchesReferencePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for d := 3; d <= 5; d++ {
		n := 1 << d
		b := topology.NewButterfly(n)
		ref := columnCut(b)
		for trial := 0; trial < 10; trial++ {
			perm := rng.Perm(n)
			want, err := SimulatePermutationReference(b, ref, perm)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SimulatePermutation(b, ref, perm)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("B%d perm %v: flat %+v, reference %+v", d, perm, got, want)
			}
		}
	}
}

func TestSimulatePermutationRejectsBadInput(t *testing.T) {
	b := topology.NewButterfly(8)
	if _, err := SimulatePermutation(b, nil, []int{0, 1, 2}); err == nil {
		t.Errorf("short permutation accepted")
	}
	if _, err := SimulatePermutation(b, nil, []int{0, 1, 2, 3, 4, 5, 6, 6}); err == nil {
		t.Errorf("repeated value accepted")
	}
}

// TestSimulateManyDeterministicAcrossWorkers pins the multi-trial
// aggregate: fixed seed and trial count must reproduce byte-identical
// statistics at any worker count, for every trial kind.
func TestSimulateManyDeterministicAcrossWorkers(t *testing.T) {
	b := topology.NewButterfly(16)
	cases := []struct {
		name string
		net  *topology.Butterfly
		kind TrialKind
	}{
		{"random/Bn", b, RandomDestinations},
		{"perm/Bn", b, RandomPermutations},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := columnCut(tc.net)
			var base TrialStats
			for i, workers := range []int{1, 2, 3, 8} {
				s := SimulateMany(tc.net, ref, tc.kind, ManyOptions{Trials: 16, Workers: workers, Seed: 5})
				if i == 0 {
					base = s
					continue
				}
				if !trialStatsEqual(s, base) {
					t.Errorf("workers=%d: %+v\nworkers=1: %+v", workers, s, base)
				}
			}
		})
	}
}

func trialStatsEqual(a, b TrialStats) bool {
	return reflect.DeepEqual(a, b)
}

// TestSimulateManyTrialsMatchSingleRuns checks that each trial of the
// aggregate is exactly the single-trial simulation on its derived seed.
func TestSimulateManyTrialsMatchSingleRuns(t *testing.T) {
	b := topology.NewButterfly(16)
	ref := columnCut(b)
	const trials = 8
	stats := SimulateMany(b, ref, RandomDestinations, ManyOptions{Trials: trials, Seed: 9})
	var sumSteps, sumPackets int
	minSteps, maxSteps := int(^uint(0)>>1), 0
	for tr := 0; tr < trials; tr++ {
		r := SimulateRandomDestinations(b, ref, bitutil.SubSeed(9, tr))
		sumSteps += r.Steps
		sumPackets += r.Packets
		if r.Steps < minSteps {
			minSteps = r.Steps
		}
		if r.Steps > maxSteps {
			maxSteps = r.Steps
		}
		if r.Steps < r.CongestionBound {
			t.Errorf("trial %d: steps %d below certified bound %d", tr, r.Steps, r.CongestionBound)
		}
	}
	if stats.TotalPackets != int64(sumPackets) {
		t.Errorf("aggregate packets %d, replayed %d", stats.TotalPackets, sumPackets)
	}
	if stats.MinSteps != minSteps || stats.MaxSteps != maxSteps {
		t.Errorf("aggregate steps [%d,%d], replayed [%d,%d]",
			stats.MinSteps, stats.MaxSteps, minSteps, maxSteps)
	}
	if want := float64(sumSteps) / trials; stats.MeanSteps != want {
		t.Errorf("mean steps %v, want %v", stats.MeanSteps, want)
	}
	if stats.MinRatio < 1 {
		t.Errorf("a trial beat its certified bound: min ratio %v", stats.MinRatio)
	}
	if stats.TightTrials < 0 || stats.TightTrials > trials {
		t.Errorf("tight trials %d out of range", stats.TightTrials)
	}
	hist := 0
	for _, c := range stats.MaxQueueHist {
		hist += c
	}
	if hist != trials {
		t.Errorf("max-queue histogram covers %d trials, want %d", hist, trials)
	}
}

func TestSimulateManyPermutationPacketCount(t *testing.T) {
	b := topology.NewButterfly(32)
	stats := SimulateMany(b, nil, RandomPermutations, ManyOptions{Trials: 5, Seed: 1})
	if stats.TotalPackets != 5*32 {
		t.Errorf("permutation trials routed %d packets, want %d", stats.TotalPackets, 5*32)
	}
	if stats.MeanRatio != 0 || stats.TightTrials != 0 {
		t.Errorf("nil cut produced bound statistics: %+v", stats)
	}
}

func TestSimulateManyKindValidation(t *testing.T) {
	b := topology.NewButterfly(8)
	w := topology.NewWrappedButterfly(8)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Bn kind on Wn", func() {
		SimulateMany(w, nil, RandomDestinations, ManyOptions{})
	})
	mustPanic("unknown kind", func() {
		SimulateMany(b, nil, TrialKind(42), ManyOptions{})
	})
}

// TestMaxStepsExhaustion forces non-convergence through the seeded fault
// model (DropProb 0.999 with unbounded retransmission never converges
// within the step limit) and checks the trials come back flagged Exhausted
// — never a panic — excluded from the aggregates, and that the worker
// states survive to run a healthy aggregate afterwards.
func TestMaxStepsExhaustion(t *testing.T) {
	b := topology.NewButterfly(16)
	s := SimulateMany(b, nil, RandomDestinations, ManyOptions{Trials: 2, Workers: 2, Fault: FaultOptions{DropProb: 0.999}})
	if s.ExhaustedTrials != 2 {
		t.Fatalf("ExhaustedTrials = %d, want 2", s.ExhaustedTrials)
	}
	if s.Trials != 0 {
		t.Fatalf("Trials = %d, want 0 (exhausted trials are excluded)", s.Trials)
	}
	if s.TotalPackets != 0 || s.MeanSteps != 0 {
		t.Fatalf("exhausted trials leaked into the aggregates: %+v", s)
	}
	// The pooled states cleared their queues: a follow-up healthy run on
	// the same shape must agree with a fresh single-trial simulation.
	after := SimulateMany(b, nil, RandomDestinations, ManyOptions{Trials: 1, Seed: 7})
	want := SimulateRandomDestinations(b, nil, bitutil.SubSeed(7, 0))
	if after.ExhaustedTrials != 0 || after.Trials != 1 || after.MeanSteps != float64(want.Steps) {
		t.Fatalf("post-exhaustion run disagrees: %+v, want steps %d", after, want.Steps)
	}
}

// TestSimulateScenarioExhausted checks the single-trial scenario entry
// reports exhaustion through the result, with partial counters intact.
func TestSimulateScenarioExhausted(t *testing.T) {
	b := topology.NewButterfly(16)
	f := FaultOptions{DropProb: 0.999}
	res, err := SimulateScenario(b, nil, RandomDestinations, 1, f, StoreAndForward)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatalf("DropProb=0.999 with unbounded retransmission converged: %+v", res)
	}
	if res.Steps != defaultMaxSteps(b) {
		t.Fatalf("Steps = %d, want the %d-step limit", res.Steps, defaultMaxSteps(b))
	}
	if res.Retransmits == 0 {
		t.Fatalf("exhausted run reports no retransmissions: %+v", res)
	}
}

func TestTrialKindString(t *testing.T) {
	for _, tc := range []struct {
		kind TrialKind
		want string
		slug string
	}{
		{RandomDestinations, "random destinations", "random"},
		{RandomPermutations, "random permutations", "permutation"},
		{HotSpotDestinations, "hot-spot destinations", "hotspot"},
		{BitReversalDestinations, "bit-reversal destinations", "bitreversal"},
		{TrialKind(9), "TrialKind(9)", "kind9"},
	} {
		if got := tc.kind.String(); got != tc.want {
			t.Errorf("TrialKind %d: %q, want %q", int(tc.kind), got, tc.want)
		}
		if got := tc.kind.Slug(); got != tc.slug {
			t.Errorf("TrialKind %d slug: %q, want %q", int(tc.kind), got, tc.slug)
		}
		if tc.slug != "kind9" {
			back, err := ParseTrialKind(tc.slug)
			if err != nil || back != tc.kind {
				t.Errorf("ParseTrialKind(%q) = %v, %v; want %v", tc.slug, back, err, tc.kind)
			}
		}
	}
	for _, slug := range []string{"bogus", "wrapped"} {
		if _, err := ParseTrialKind(slug); err == nil {
			t.Errorf("ParseTrialKind accepted %q", slug)
		}
	}
}

// TestSteadyStateAllocations verifies the tentpole's allocation claim: a
// warmed state pool runs single trials without per-trial allocations.
func TestSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	b := topology.NewButterfly(64)
	ref := columnCut(b)
	SimulateRandomDestinations(b, ref, 1) // warm the state pool
	seed := int64(0)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		SimulateRandomDestinations(b, ref, seed)
	})
	if allocs > 1 {
		t.Errorf("steady-state trial allocates %.1f objects, want ≤1", allocs)
	}
}

func TestDirIndexMatchesGraph(t *testing.T) {
	for _, b := range []*topology.Butterfly{
		topology.NewButterfly(2),
		topology.NewButterfly(8),
	} {
		var ix dirIndex
		ix.build(b)
		for v := 0; v < b.N(); v++ {
			seen := make(map[int32]bool)
			for _, w := range b.Neighbors(v) {
				seen[w] = true
			}
			got := ix.to[ix.start[v]:ix.start[v+1]]
			if len(got) != len(seen) {
				t.Fatalf("node %d: %d directed edges for %d distinct neighbors", v, len(got), len(seen))
			}
			for i, w := range got {
				if !seen[w] {
					t.Fatalf("node %d: directed edge to non-neighbor %d", v, w)
				}
				if i > 0 && got[i-1] >= w {
					t.Fatalf("node %d: targets not strictly increasing: %v", v, got)
				}
			}
		}
	}
}

// TestTrialSeedDistinct checks the trial seeds SimulateMany draws
// (bitutil.SubSeed of the base seed and the trial number).
func TestTrialSeedDistinct(t *testing.T) {
	seen := make(map[int64]int)
	for tr := 0; tr < 1000; tr++ {
		s := bitutil.SubSeed(7, tr)
		if prev, dup := seen[s]; dup {
			t.Fatalf("trials %d and %d share seed %d", prev, tr, s)
		}
		seen[s] = tr
	}
	if bitutil.SubSeed(7, 0) == bitutil.SubSeed(8, 0) {
		t.Errorf("base seeds 7 and 8 collide at trial 0")
	}
}

func ExampleSimulateMany() {
	b := topology.NewButterfly(16)
	side := make([]bool, b.N())
	for v := 0; v < b.N(); v++ {
		side[v] = b.Column(v) < b.Inputs()/2
	}
	ref := cut.New(b.Graph, side)
	stats := SimulateMany(b, ref, RandomDestinations, ManyOptions{Trials: 100, Seed: 1})
	fmt.Println("trials:", stats.Trials)
	fmt.Println("bound respected in all trials:", stats.MinRatio >= 1)
	// Output:
	// trials: 100
	// bound respected in all trials: true
}

// SimulatePermutation routes one packet from every input of Bn to output
// perm[input] along the monotone paths of Lemma 2.3.
func SimulatePermutation(b *topology.Butterfly, ref *cut.Cut, perm []int) (SimResult, error) {
	if err := checkTrial(RandomPermutations, b); err != nil {
		panic(err.Error())
	}
	st := getState(b)
	defer putState(st)
	st.setCut(ref)
	if err := st.compilePermutation(perm); err != nil {
		return SimResult{}, err
	}
	return st.run(defaultMaxSteps(b)), nil
}

// SimulateScenario runs one trial of kind on b under the given fault model
// and switching discipline on the flat engine. Seed drives both the
// traffic draw and (through a separate RNG stream) the fault plan; with
// the zero FaultOptions and StoreAndForward it is byte-identical to the
// healthy single-trial entry points. A trial that exceeds the step limit
// returns with Exhausted set — never a panic.
func SimulateScenario(b *topology.Butterfly, ref *cut.Cut, kind TrialKind, seed int64, f FaultOptions, sw Switching) (SimResult, error) {
	if err := checkTrial(kind, b); err != nil {
		return SimResult{}, err
	}
	if err := f.Validate(); err != nil {
		return SimResult{}, err
	}
	st := getState(b)
	defer putState(st)
	st.setCut(ref)
	st.setScenario(f, sw)
	st.compileKind(kind, seed)
	st.seedFaults(seed)
	return st.run(defaultMaxSteps(b)), nil
}
