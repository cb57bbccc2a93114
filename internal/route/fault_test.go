package route

import (
	"testing"

	"repro/internal/bitutil"
	"repro/internal/topology"
)

// faultKinds are the trial kinds exercised by the fault cross-checks.
var faultKinds = []TrialKind{
	RandomDestinations,
	RandomPermutations,
	HotSpotDestinations,
	BitReversalDestinations,
}

// TestFaultFreeByteIdentical is the property test of the fault model's
// zero value: SimulateScenario with zero FaultOptions must be
// byte-identical to the pre-fault single-trial entry points (the fault
// RNG is a separate stream and a disabled model draws nothing from it),
// and the SimulateMany aggregate must stay byte-identical at any worker
// count.
func TestFaultFreeByteIdentical(t *testing.T) {
	b := topology.NewButterfly(16)
	ref := columnCut(b)
	for seed := int64(0); seed < 8; seed++ {
		want := SimulateRandomDestinations(b, ref, seed)
		got, err := SimulateScenario(b, ref, RandomDestinations, seed, FaultOptions{}, StoreAndForward)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("seed %d: scenario %+v, plain %+v", seed, got, want)
		}
		if got.Delivered != got.Packets || got.Dropped != 0 || got.Retransmits != 0 || got.DeadLinks != 0 {
			t.Errorf("seed %d: healthy run reports faults: %+v", seed, got)
		}
	}
	var base TrialStats
	for i, workers := range []int{1, 2, 3, 8} {
		s := SimulateMany(b, ref, RandomDestinations, ManyOptions{
			Trials: 12, Workers: workers, Seed: 5,
		})
		if i == 0 {
			base = s
			continue
		}
		if !trialStatsEqual(s, base) {
			t.Errorf("workers=%d: %+v\nworkers=1: %+v", workers, s, base)
		}
	}
	if base.DeliveredRate != 1 {
		t.Errorf("healthy delivered rate %v, want 1", base.DeliveredRate)
	}
}

// faultScenarios spans the fault space the cross-checks cover: pure
// drops (bounded and unbounded retransmission), pure dead links, and
// both at once.
var faultScenarios = []FaultOptions{
	{DropProb: 0.1},
	{DropProb: 0.3, MaxRetransmits: 4},
	{DropProb: 0.5, MaxRetransmits: 1},
	{DeadLinkProb: 0.05},
	{DeadLinkProb: 0.2},
	{DropProb: 0.2, MaxRetransmits: 3, DeadLinkProb: 0.1},
}

// TestScenarioCrossCheck pins the flat engine to the map-based oracle on
// B3–B5 under every fault scenario, both switching disciplines, and all
// Bn trial kinds: every field of SimResult must agree per seed.
func TestScenarioCrossCheck(t *testing.T) {
	for d := 3; d <= 5; d++ {
		b := topology.NewButterfly(1 << d)
		ref := columnCut(b)
		for _, kind := range faultKinds {
			for _, f := range faultScenarios {
				for _, sw := range []Switching{StoreAndForward, CutThrough} {
					for seed := int64(0); seed < 3; seed++ {
						want, err := SimulateScenarioReference(b, ref, kind, seed, f, sw)
						if err != nil {
							t.Fatal(err)
						}
						got, err := SimulateScenario(b, ref, kind, seed, f, sw)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Errorf("B%d %s %s %+v seed %d:\nflat %+v\nref  %+v",
								d, kind.Slug(), sw.Slug(), f, seed, got, want)
						}
						if !got.Exhausted && got.Delivered+got.Dropped != got.Packets {
							t.Errorf("B%d %s %s %+v seed %d: delivered %d + dropped %d != packets %d",
								d, kind.Slug(), sw.Slug(), f, seed, got.Delivered, got.Dropped, got.Packets)
						}
					}
				}
			}
		}
	}
}

// TestFaultManyDeterministicAcrossWorkers pins the lossy multi-trial
// aggregate: a fixed seed must reproduce byte-identical statistics at
// any worker count, for drops, dead links, and cut-through.
func TestFaultManyDeterministicAcrossWorkers(t *testing.T) {
	b := topology.NewButterfly(16)
	ref := columnCut(b)
	for _, tc := range []struct {
		name string
		kind TrialKind
		opt  ManyOptions
	}{
		{"drops/sf", RandomDestinations, ManyOptions{Fault: FaultOptions{DropProb: 0.2, MaxRetransmits: 8}}},
		{"dead/sf", RandomPermutations, ManyOptions{Fault: FaultOptions{DeadLinkProb: 0.1}}},
		{"both/ct", HotSpotDestinations, ManyOptions{
			Fault:     FaultOptions{DropProb: 0.15, MaxRetransmits: 4, DeadLinkProb: 0.05},
			Switching: CutThrough,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var base TrialStats
			for i, workers := range []int{1, 2, 3, 8} {
				opt := tc.opt
				opt.Trials, opt.Workers, opt.Seed = 16, workers, 11
				s := SimulateMany(b, ref, tc.kind, opt)
				if i == 0 {
					base = s
					if s.TotalDropped == 0 && s.TotalRetransmits == 0 {
						t.Fatalf("fault scenario produced no faults: %+v", s)
					}
					if s.DeliveredRate >= 1 {
						t.Fatalf("lossy delivered rate %v, want < 1", s.DeliveredRate)
					}
					continue
				}
				if !trialStatsEqual(s, base) {
					t.Errorf("workers=%d: %+v\nworkers=1: %+v", workers, s, base)
				}
			}
		})
	}
}

// TestFaultManyTrialsMatchSingleRuns checks each lossy aggregate trial
// replays exactly through the single-trial scenario entry on its derived
// seed.
func TestFaultManyTrialsMatchSingleRuns(t *testing.T) {
	b := topology.NewButterfly(16)
	ref := columnCut(b)
	f := FaultOptions{DropProb: 0.25, MaxRetransmits: 6, DeadLinkProb: 0.05}
	const trials, seed = 6, 17
	stats := SimulateMany(b, ref, RandomDestinations, ManyOptions{
		Trials: trials, Seed: seed, Fault: f, Switching: CutThrough,
	})
	var delivered, dropped, retx int64
	for tr := 0; tr < trials; tr++ {
		r, err := SimulateScenario(b, ref, RandomDestinations, bitutil.SubSeed(seed, tr), f, CutThrough)
		if err != nil {
			t.Fatal(err)
		}
		if r.Exhausted {
			t.Fatalf("trial %d exhausted under a bounded retransmission budget", tr)
		}
		delivered += int64(r.Delivered)
		dropped += int64(r.Dropped)
		retx += int64(r.Retransmits)
	}
	if stats.TotalDelivered != delivered || stats.TotalDropped != dropped || stats.TotalRetransmits != retx {
		t.Errorf("aggregate (%d,%d,%d), replayed (%d,%d,%d)",
			stats.TotalDelivered, stats.TotalDropped, stats.TotalRetransmits, delivered, dropped, retx)
	}
}

// TestDeadLinksDropAtInjection: with nearly every link dead, packets die
// at their first hop and the accounting still balances.
func TestDeadLinksDropAtInjection(t *testing.T) {
	b := topology.NewButterfly(16)
	res, err := SimulateScenario(b, nil, RandomDestinations, 2, FaultOptions{DeadLinkProb: 0.999}, StoreAndForward)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadLinks == 0 {
		t.Fatalf("DeadLinkProb=0.999 sampled no dead links: %+v", res)
	}
	if res.Delivered+res.Dropped != res.Packets {
		t.Errorf("delivered %d + dropped %d != packets %d", res.Delivered, res.Dropped, res.Packets)
	}
	if res.Dropped == 0 {
		t.Errorf("no packet hit a dead link: %+v", res)
	}
}

// TestRetransmissionBudgetDropsPackets: a tight budget under heavy loss
// drops packets instead of retrying forever — the run converges.
func TestRetransmissionBudgetDropsPackets(t *testing.T) {
	b := topology.NewButterfly(16)
	res, err := SimulateScenario(b, nil, RandomDestinations, 4, FaultOptions{DropProb: 0.9, MaxRetransmits: 1}, StoreAndForward)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted {
		t.Fatalf("budget 1 still exhausted the step limit: %+v", res)
	}
	if res.Dropped == 0 || res.Retransmits == 0 {
		t.Errorf("DropProb=0.9 budget=1 dropped nothing: %+v", res)
	}
	if res.Retransmits < res.Dropped {
		t.Errorf("every drop costs one failed attempt: retransmits %d < dropped %d", res.Retransmits, res.Dropped)
	}
}

// TestCutThroughNeverSlower: on a healthy network, cut-through finishes
// in at most the store-and-forward step count (it only ever advances
// packets further within a step).
func TestCutThroughNeverSlower(t *testing.T) {
	b := topology.NewButterfly(32)
	for seed := int64(0); seed < 5; seed++ {
		sf, err := SimulateScenario(b, nil, RandomDestinations, seed, FaultOptions{}, StoreAndForward)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := SimulateScenario(b, nil, RandomDestinations, seed, FaultOptions{}, CutThrough)
		if err != nil {
			t.Fatal(err)
		}
		if ct.Steps > sf.Steps {
			t.Errorf("seed %d: cut-through %d steps > store-and-forward %d", seed, ct.Steps, sf.Steps)
		}
		if ct.Delivered != ct.Packets {
			t.Errorf("seed %d: healthy cut-through lost packets: %+v", seed, ct)
		}
	}
}

// TestHotSpotInvariants: n-1 packets, all ending at one node; the hot
// node only depends on the seed.
func TestHotSpotInvariants(t *testing.T) {
	b := topology.NewButterfly(16)
	res, err := SimulateScenario(b, nil, HotSpotDestinations, 3, FaultOptions{}, StoreAndForward)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != b.N()-1 {
		t.Errorf("hot-spot packets %d, want %d", res.Packets, b.N()-1)
	}
	again, err := SimulateScenario(b, nil, HotSpotDestinations, 3, FaultOptions{}, StoreAndForward)
	if err != nil {
		t.Fatal(err)
	}
	if res != again {
		t.Errorf("hot-spot trial not reproducible: %+v vs %+v", res, again)
	}
}

// TestBitReversalInvariants: the traffic is deterministic (any seed gives
// the same trial) and routes exactly the non-palindromic columns.
func TestBitReversalInvariants(t *testing.T) {
	b := topology.NewButterfly(16)
	d := b.Dim()
	fixed := 0
	for w := 0; w < b.Inputs(); w++ {
		if bitutil.Reverse(w, d) == w {
			fixed++
		}
	}
	want := b.N() - fixed*(d+1)
	res, err := SimulateScenario(b, nil, BitReversalDestinations, 1, FaultOptions{}, StoreAndForward)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != want {
		t.Errorf("bit-reversal packets %d, want %d (%d fixed columns)", res.Packets, want, fixed)
	}
	other, err := SimulateScenario(b, nil, BitReversalDestinations, 99, FaultOptions{}, StoreAndForward)
	if err != nil {
		t.Fatal(err)
	}
	if res != other {
		t.Errorf("fault-free bit-reversal depends on the seed: %+v vs %+v", res, other)
	}
}

// TestScenarioValidation: topology/fault mistakes surface as errors from
// the exported scenario entry points, not panics.
func TestScenarioValidation(t *testing.T) {
	b := topology.NewButterfly(8)
	w := topology.NewWrappedButterfly(8)
	if _, err := SimulateScenario(w, nil, RandomDestinations, 0, FaultOptions{}, StoreAndForward); err == nil {
		t.Error("Bn kind accepted on Wn")
	}
	if _, err := SimulateScenario(b, nil, TrialKind(42), 0, FaultOptions{}, StoreAndForward); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, f := range []FaultOptions{
		{DropProb: 1},
		{DropProb: -0.1},
		{DeadLinkProb: 1.5},
		{MaxRetransmits: -1},
	} {
		if _, err := SimulateScenario(b, nil, RandomDestinations, 0, f, StoreAndForward); err == nil {
			t.Errorf("invalid %+v accepted", f)
		}
		if err := f.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", f)
		}
	}
}

// TestSwitchingParse round-trips slugs and names.
func TestSwitchingParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Switching
	}{
		{"sf", StoreAndForward},
		{"store-and-forward", StoreAndForward},
		{"ct", CutThrough},
		{"cut-through", CutThrough},
		{"wormhole", CutThrough},
	} {
		got, err := ParseSwitching(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSwitching(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseSwitching("bogus"); err == nil {
		t.Error("ParseSwitching accepted a bogus mode")
	}
	if StoreAndForward.String() != "store-and-forward" || CutThrough.Slug() != "ct" {
		t.Error("Switching name/slug mismatch")
	}
}
