package heuristic

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/cut"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Registry metrics of the multi-start search, published per BisectParallel
// call (never inside a refinement pass).
var (
	metricBisectRuns   = obs.NewCounter("heuristic.bisect_runs")
	metricBisectStarts = obs.NewCounter("heuristic.bisect_starts")
	metricBisectMS     = obs.NewHistogram("heuristic.bisect_ms")
)

// BisectParallel searches for a small bisection of g with the multi-start
// FM search, the starts distributed over worker goroutines, and returns
// the best cut found. The result is always a valid bisection; its capacity
// is an upper bound on BW(g). It is deterministic for a fixed seed and
// independent of the worker count: each start draws from
// StartSeed(opts.Seed, i) (a splitmix64 mix, so nearby base seeds share no
// start streams), and ties between equal capacities resolve to the lowest
// start index regardless of the work partition. Cancelling opts.Ctx stops
// refinement early; every start still yields a valid bisection, so the
// result is a bisection either way.
func BisectParallel(g *graph.Graph, opts BisectOptions) *cut.Cut {
	opts = opts.withDefaults()
	began := time.Now()
	span := opts.Trace.StartSpan("heuristic.bisect", obs.Attrs{
		"name": opts.Label, "nodes": g.N(), "starts": opts.Starts,
	})
	metricBisectRuns.Inc()
	metricBisectStarts.Add(int64(opts.Starts))
	defer func() { metricBisectMS.Observe(int64(time.Since(began) / time.Millisecond)) }()
	n := g.N()
	if n == 0 {
		span.End(nil)
		return cut.FromSet(g, nil)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > opts.Starts {
		workers = opts.Starts
	}

	results := make([]*cut.Cut, opts.Starts)
	var wg sync.WaitGroup
	starts := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for start := range starts {
				// Each start gets its own deterministic sub-seed, so the
				// work partition does not affect the outcome.
				results[start] = oneStart(g, StartSeed(opts.Seed, start), opts.MaxPasses, opts.Ctx)
			}
		}()
	}
	for start := 0; start < opts.Starts; start++ {
		starts <- start
	}
	close(starts)
	wg.Wait()

	best := results[0]
	for _, c := range results[1:] {
		if c.Capacity() < best.Capacity() {
			best = c
		}
	}
	span.End(obs.Attrs{"capacity": best.Capacity()})
	return best
}
