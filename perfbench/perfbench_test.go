package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestSequencesAreSeeded(t *testing.T) {
	cat, pop := warmCatalogue(), mixedPopular()
	for name, gen := range map[string]func(int64) []query{
		"serve-warm":  func(s int64) []query { return warmSequence(s, 400, cat) },
		"serve-mixed": func(s int64) []query { return mixedSequence(s, 400, pop) },
	} {
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
}

func TestMixedSequenceSpreadsFreshKeys(t *testing.T) {
	seq := mixedSequence(3, 800, mixedPopular())
	seen := make(map[string]bool)
	for i, q := range seq {
		fresh := i%mixedFreshK == mixedFreshK/2
		if fresh && seen[q.path()] {
			t.Fatalf("request %d repeats never-seen key %s", i, q.path())
		}
		seen[q.path()] = true
	}
}

func TestQuantileExact(t *testing.T) {
	hundredOne := make([]float64, 101)
	for i := range hundredOne {
		hundredOne[100-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{4, 1, 3}, 0.5, 3},
		{hundredOne, 0.99, 100},
		{hundredOne, 0.5, 51},
		{hundredOne, 0, 1},
		{hundredOne, 1, 101},
		{[]float64{1, 2}, 0.25, 1.25},
		{[]float64{7}, 0.99, 7},
		{nil, 0.5, 0},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestSelfTimeCountsOverlapsOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "phase.open_loop", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Name: "client.round_trip", StartUS: 10, EndUS: 30},
		{ID: 3, Parent: 1, Name: "client.round_trip", StartUS: 20, EndUS: 50},  // overlaps 2
		{ID: 4, Parent: 1, Name: "client.round_trip", StartUS: 90, EndUS: 120}, // sticks out
		{ID: 5, Parent: 3, Name: "client.conn_wait", StartUS: 20, EndUS: 26},
	}
	self := selfTimes(spans)
	// Children of 1 cover [10,50] and [90,100]: 50 of its 100 µs.
	for id, want := range map[int64]float64{1: 50, 2: 20, 3: 24, 4: 30, 5: 6} {
		if got := self[id]; math.Abs(got-want) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", id, got, want)
		}
	}
	rows := layerSummary(spans, 0)
	got := map[string]int{}
	for _, r := range rows {
		got[r.Layer] = r.Count
	}
	if !reflect.DeepEqual(got, map[string]int{"phase": 1, "client": 4}) {
		t.Errorf("layer counts %v", got)
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	ivs := [][2]float64{{5, 6}, {0, 2}, {1, 3}, {5, 5.5}}
	if got := covered(0, 10, ivs); got != 4 {
		t.Errorf("covered = %v, want 4", got)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered of nothing = %v", got)
	}
}

// metricNames reads the declared metric names of one BENCHMARK.json
// section.
func metricNames(t *testing.T, section string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench map[string]json.RawMessage
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(bench[section], &ms); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// smoke runs one seconds-long workload in-process and checks it reports
// every declared metric with no failed request.
func smoke(t *testing.T, workload string, traced bool) {
	r := newRun(workload, 5, 1, traced)
	r.tmp, r.spansDir = t.TempDir(), t.TempDir()
	// Every phase runs, with cheap certificates: EE(W16,k<=4)=8 and
	// NE(B32,k<=8)=4, warmed up with the latter.
	r.minReps = 1
	r.certs = []certKey{
		{Q: expansionQ("ee_wn", 16, 32, 4), Pins: map[int]int{4: 8}},
		{Q: expansionQ("ne_bn", 32, 192, 8), Pins: map[int]int{8: 4}},
	}
	r.warmup = r.certs[1]
	if err := r.dispatch(); err != nil {
		t.Fatal(err)
	}
	res := r.result()
	for _, e := range r.errs {
		t.Error(e)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct %v, %d of %d failed", workload, res.Correct, res.Failed, res.Attempted)
	}
	section := "end_to_end"
	if traced {
		section = "per_layer"
	}
	var got []string
	for name := range res.Metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	if want := metricNames(t, section); !reflect.DeepEqual(got, want) {
		t.Errorf("%s metrics %v, want %v", workload, got, want)
	}
	if traced {
		if _, err := os.Stat(r.spansPath()); err != nil {
			t.Errorf("no spans file: %v", err)
		}
	}
}

func TestSmokeServeWarm(t *testing.T)  { smoke(t, "serve-warm", false) }
func TestSmokeServeMixed(t *testing.T) { smoke(t, "serve-mixed", false) }
func TestSmokeCertify(t *testing.T)    { smoke(t, "certify", false) }

func TestSmokeTracedServeWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("traced smoke in -short mode")
	}
	smoke(t, "serve-warm", true)
}
