package exact

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// drainTotals is what one drain of a job list explored and pruned, per
// search.
type drainTotals [][2]int64

// checkPartition drains the same job list on one worker, which never
// donates, and on two and three, which donate whenever one waits. Every
// incumbent is pinned at its search's optimum, so nothing is ever
// recorded and pruning is a fixed function of the search tree: if each
// donated branch is searched exactly once, by its donee, every worker
// count explores and prunes the same nodes. The two- and three-worker
// drains are repeated, up to rounds times, until one of them donates (a
// worker that starts late may find the work gone), and every drain is
// checked. It returns how many branches they donated.
func checkPartition(t *testing.T, name string, rounds int, drain func(workers int) drainTotals) int64 {
	t.Helper()
	before := metricDonations.Value()
	want := drain(1)
	if made := metricDonations.Value() - before; made != 0 {
		t.Errorf("%s: one worker donated %d branches", name, made)
	}
	var donated int64
	for round := 0; round < rounds && donated == 0; round++ {
		for _, workers := range []int{2, 3} {
			before := metricDonations.Value()
			got := drain(workers)
			made := metricDonations.Value() - before
			donated += made
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s search %d: %d workers explored/pruned %v, one worker %v (%d donations)",
						name, i, workers, got[i], want[i], made)
				}
			}
		}
	}
	return donated
}

// TestDonationPartitionsTheTree checks that donation splits the search
// tree without losing or repeating a branch, on both engines: for the
// expansion engine, one run holding an NE and an EE search on W16 and W32
// (one node class, so one job each, rooted at node 0), and orbit-job runs,
// EE(B8,8) and NE(B16,8), one job per declared node class; for the bisection runner, BW on W8, CCC8
// and B8, drained as one empty-prefix job and as the static BFS-prefix
// split. The expansion cases and B8 are big enough that a busy worker
// flushes while another waits; W8 and CCC8 finish within one flush and pin
// the static split.
func TestDonationPartitionsTheTree(t *testing.T) {
	var expDonations, bisDonations int64
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		ne, ee int // set sizes, 0 for no search
	}{
		{"W16", topology.NewWrappedButterfly(16).Graph, 8, 8},
		{"W32", topology.NewWrappedButterfly(32).Graph, 5, 5},
		{"B8", topology.NewButterfly(8).Graph, 0, 8},
		{"B16", topology.NewButterfly(16).Graph, 8, 0},
	} {
		opts, starts := SolveOptions{Workers: 1}, unrootedStarts(c.g)
		type sized struct {
			k    int
			edge bool
			opt  int
		}
		var want []sized
		if c.ne > 0 {
			want = append(want, sized{c.ne, nodeExpansion, SolveNodeExpansion(context.Background(), c.g, c.ne, opts).Value})
		}
		if c.ee > 0 {
			want = append(want, sized{c.ee, edgeExpansion, SolveEdgeExpansion(context.Background(), c.g, c.ee, opts).Value})
		}
		expDonations += checkPartition(t, c.name, 10, func(workers int) drainTotals {
			// A bound of optimum − 1 sets best to the optimum.
			var searches []*expSearch
			for _, w := range want {
				s := newExpSearch(c.g, w.k, w.edge, w.opt-1, nil)
				s.starts = starts
				searches = append(searches, s)
			}
			runExpansionJobs(c.g, searches, startJobs(searches), workers, nil)
			var out drainTotals
			for _, s := range searches {
				if s.sb.side != nil || s.incomplete.Load() {
					t.Fatalf("%s: a search pinned at its optimum recorded a set or stopped", c.name)
				}
				out = append(out, [2]int64{s.sb.explored.Load(), s.sb.pruned.Load()})
			}
			return out
		})
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"BW(W8)", topology.NewWrappedButterfly(8).Graph},
		{"BW(CCC8)", topology.NewCCC(8).Graph},
		{"BW(B8)", topology.NewButterfly(8).Graph},
	} {
		_, opt := MinBisection(c.g)
		n := c.g.N()
		order, inU := bfsOrder(c.g), make([]int8, n)
		for v := range inU {
			inU[v] = 1
		}
		half := (n + 1) / 2
		rounds := 1
		if n >= 32 {
			rounds = 10
		}
		for _, jobs := range [][]job{{{}}, bisectionPrefixes(order, inU, fanoutDepth(n, 2), half, 0)} {
			bisDonations += checkPartition(t, c.name, rounds, func(workers int) drainTotals {
				var sb incumbent
				sb.best.Store(int64(opt))
				if runBisectionJobs(c.g, order, inU, half, 0, jobs, &sb, workers, nil) || sb.side != nil {
					t.Fatalf("%s: a search pinned at its optimum recorded a cut or stopped", c.name)
				}
				return drainTotals{{sb.explored.Load(), sb.pruned.Load()}}
			})
		}
	}
	t.Logf("donations: %d expansion, %d bisection", expDonations, bisDonations)
	// On one CPU a second worker may only start once the first has
	// finished a small search, so donation is asserted where workers can
	// run side by side.
	if runtime.GOMAXPROCS(0) > 1 && (expDonations == 0 || bisDonations == 0) {
		t.Errorf("no branch donated: %d expansion, %d bisection", expDonations, bisDonations)
	}
}
