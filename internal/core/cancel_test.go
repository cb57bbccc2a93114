package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/construct"
	"repro/internal/route"
)

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestButterflyBisectionCancelledExactIsIncumbent(t *testing.T) {
	r, err := ButterflyBisection(8, BisectionBudget{ExactNodes: 32, Ctx: cancelledCtx()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Exact == Unknown {
		t.Fatal("cancelled solve returned no incumbent")
	}
	if r.ExactComplete {
		t.Error("cancelled solve marked complete")
	}
	// The incumbent is a valid bisection, so it stays an upper bound.
	if r.Exact < 8 {
		t.Errorf("incumbent %d below BW(B8)=8", r.Exact)
	}
	out := RenderBisectionTable("t", []BisectionReport{r})
	if !strings.Contains(out, "no") {
		t.Errorf("table does not flag the non-exact row:\n%s", out)
	}
}

func TestButterflyBisectionCancelledVirtualFallsBack(t *testing.T) {
	// With a dead context the report quotes the plan's analytic capacity
	// rather than erroring: -timeout runs must exit cleanly. Every size
	// from 4 up is measured virtually, so this holds at 2^12 as well as
	// at 2^18.
	for _, n := range []int{1 << 12, 1 << 18} {
		start := time.Now()
		r, err := ButterflyBisection(n, BisectionBudget{Ctx: cancelledCtx()})
		if err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Fatalf("B%d: cancelled virtual report took %v", n, took)
		}
		plan, err := construct.BestPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Constructed != plan.Capacity {
			t.Errorf("B%d: fallback capacity %d, plan capacity %d", n, r.Constructed, plan.Capacity)
		}
		live, err := ButterflyBisection(n, BisectionBudget{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Constructed != live.Constructed {
			t.Errorf("B%d: fallback capacity %d differs from verified %d", n, r.Constructed, live.Constructed)
		}
	}
}

func TestExpansionTableCancelledFlagsRows(t *testing.T) {
	rows := ExpansionTable(WnEdge, 8, []int{1}, ExpansionTableOptions{
		ExactNodes: 64, Ctx: cancelledCtx(),
	})
	r := rows[0]
	if r.Exact == Unknown {
		t.Fatal("cancelled survey returned no incumbent")
	}
	if r.ExactComplete {
		t.Error("cancelled survey row marked exact")
	}
	out := RenderExpansionTable(rows)
	if !strings.Contains(out, "exact?") || !strings.Contains(out, "explored") {
		t.Errorf("table missing telemetry columns:\n%s", out)
	}
}

// TestExpansionTableCancelledRowsKeepWitness runs every §4.3 table on B32
// and W32 under an already-cancelled context: each search is cut short
// before it records a set, so each row must fall back to the witness set
// it was seeded with, reading at most the witness bound, and be flagged
// non-exact.
func TestExpansionTableCancelledRowsKeepWitness(t *testing.T) {
	for _, kind := range []ExpansionKind{WnEdge, WnNode, BnEdge, BnNode} {
		dims := []int{1, 2}
		rows := ExpansionTable(kind, 32, dims, ExpansionTableOptions{
			ExactNodes: 200, KMax: 24, Ctx: cancelledCtx(),
		})
		for _, r := range rows {
			if r.Exact == Unknown {
				t.Fatalf("%s k=%d: no exact pass under the budget", kind, r.K)
			}
			if r.ExactComplete || r.Exact > r.WitnessUB {
				t.Errorf("%s k=%d: cancelled row reads %d (complete %v), witness bound %d",
					kind, r.K, r.Exact, r.ExactComplete, r.WitnessUB)
			}
		}
	}
}

func TestExpansionTableUncancelledMarksComplete(t *testing.T) {
	rows := ExpansionTable(WnEdge, 8, []int{1}, ExpansionTableOptions{ExactNodes: 64})
	r := rows[0]
	if !r.ExactComplete {
		t.Error("completed survey row not marked exact")
	}
	if r.Explored == 0 {
		t.Error("completed survey row has no explored count")
	}
}

func TestRoutingExperimentCancelled(t *testing.T) {
	r := RoutingExperiment(8, 3, route.RandomDestinations, RoutingOptions{Trials: 10, Ctx: cancelledCtx()})
	if !r.Stats.Cancelled {
		t.Fatal("cancelled run not marked")
	}
	if r.Trials != 0 || r.Stats.Requested != 10 {
		t.Fatalf("trials %d/%d, want 0/10", r.Trials, r.Stats.Requested)
	}
	out := RenderRoutingTable("t", []RoutingReport{r})
	if !strings.Contains(out, "0 of 10") {
		t.Errorf("table does not show completed-of-requested:\n%s", out)
	}
}

func TestRenderBisectionTableTelemetryColumns(t *testing.T) {
	r := WrappedBisection(8, BisectionBudget{ExactNodes: 32})
	if !r.ExactComplete || r.Explored == 0 {
		t.Fatalf("W8 solve telemetry: complete=%v explored=%d", r.ExactComplete, r.Explored)
	}
	out := RenderBisectionTable("t", []BisectionReport{r})
	for _, want := range []string{"exact?", "explored", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// Guard against the dash cells leaking into rows that skipped the exact
// pass entirely.
func TestRenderBisectionTableSkippedExact(t *testing.T) {
	r := WrappedBisection(64, BisectionBudget{ExactNodes: 16})
	if r.Exact != Unknown {
		t.Fatal("exact should be skipped at this size")
	}
	out := RenderBisectionTable("t", []BisectionReport{r})
	if !strings.Contains(out, "-") {
		t.Errorf("skipped exact row missing dashes:\n%s", out)
	}
}
