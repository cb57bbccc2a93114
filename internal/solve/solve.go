// Package solve provides the shared cancellation and telemetry machinery
// for the repo's long-running search engines (exact branch-and-bound,
// heuristic multi-start refinement, Monte-Carlo routing, virtual plan
// evaluation), and the one worker pool they fan out through (Run).
//
// The design constraint is that the engines' hot loops are 0-alloc and run
// hundreds of millions of nodes: they cannot afford a ctx.Err() call (let
// alone a select) per node. A Monitor converts a context.Context into one
// shared atomic stop flag, and engines poll it amortized — a local
// countdown is flushed via Tick every TickStride nodes, so the per-node
// cost is one branch and one increment. The same flushes feed the
// telemetry counters (nodes explored, pruned by bound) that OnProgress
// callbacks and result rows report.
//
// A cancelled engine returns its best incumbent so far flagged non-exact
// (Exact=false / Cancelled=true); partial results are never presented as
// certified optima.
package solve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Registry metrics every Monitor publishes into: the explored/pruned
// flushes land here at Tick cadence (one atomic add per TickStride nodes),
// durations and cancellations at Close. /debug/metrics and the run
// manifest read these.
var (
	metricStarted    = obs.NewCounter("solve.monitors_started")
	metricCancelled  = obs.NewCounter("solve.monitors_cancelled")
	metricExplored   = obs.NewCounter("solve.nodes_explored")
	metricPruned     = obs.NewCounter("solve.nodes_pruned")
	metricDurationMS = obs.NewHistogram("solve.duration_ms")
)

// TickStride is how many search nodes an engine should explore between
// Tick flushes. 4096 keeps the amortized cancellation latency well under
// a millisecond on the measured engines while making the per-node
// overhead unmeasurable (<1%).
const TickStride = 4096

// Progress is a point-in-time snapshot of a running (or finished) solve.
type Progress struct {
	// Solver labels the solve (Options.Name), so progress lines from
	// concurrent solvers are attributable.
	Solver string
	// Explored is the number of search-tree nodes (or trials, for the
	// Monte-Carlo engine) processed so far.
	Explored int64
	// Pruned is the number of subtrees cut off by the admissible bound.
	Pruned int64
	// Incumbent is the best objective value found so far; only meaningful
	// when HasIncumbent is true.
	Incumbent    int64
	HasIncumbent bool
	// SinceImproved is how long ago the incumbent last improved.
	SinceImproved time.Duration
	// Elapsed is the wall time since the solve started.
	Elapsed time.Duration
	// Cancelled reports whether the stop flag was raised (context
	// cancelled or deadline exceeded).
	Cancelled bool
}

// String renders a one-line human-readable progress report, used by the
// -progress flag of the commands.
func (p Progress) String() string {
	inc := "incumbent=?"
	if p.HasIncumbent {
		inc = fmt.Sprintf("incumbent=%d (improved %s ago)",
			p.Incumbent, p.SinceImproved.Round(time.Millisecond))
	}
	return fmt.Sprintf("explored=%d pruned=%d %s elapsed=%s",
		p.Explored, p.Pruned, inc, p.Elapsed.Round(time.Millisecond))
}

// Options configure a Monitor.
type Options struct {
	// Ctx carries the cancellation signal and deadline; nil means
	// context.Background() (never cancelled).
	Ctx context.Context
	// OnProgress, when non-nil, is called with a Progress snapshot every
	// Interval from a dedicated goroutine until the Monitor is closed.
	OnProgress func(Progress)
	// Interval between OnProgress calls; ≤ 0 means 1s.
	Interval time.Duration
	// Name labels the solve in progress lines and trace spans (e.g.
	// "bisection B16", "EE(W16,k) survey").
	Name string
	// Trace, when non-nil, receives span_start/incumbent/cancelled/
	// span_end events for this solve. nil disables tracing with zero
	// hot-path cost.
	Trace *obs.Tracer
}

// Monitor is the shared stop flag + telemetry counters of one solve. All
// methods are safe on a nil receiver (a nil Monitor is "never stopped,
// counters discarded"), so engines take *Monitor unconditionally and the
// legacy context-free entry points just pass nil.
type Monitor struct {
	start time.Time
	stop  atomic.Bool
	name  string
	span  *obs.Span

	explored     atomic.Int64
	pruned       atomic.Int64
	incumbent    atomic.Int64
	hasIncumbent atomic.Bool
	improvedAt   atomic.Int64 // nanoseconds after start

	quit chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// Start builds a Monitor watching opts.Ctx. If the context is already
// expired (deadline zero, pre-cancelled) the stop flag is raised
// synchronously, so engines checking Stopped before their first node
// return immediately. Callers must Close the Monitor to release its
// watcher goroutines.
func Start(opts Options) *Monitor {
	m := &Monitor{start: time.Now(), quit: make(chan struct{}), name: opts.Name}
	metricStarted.Inc()
	m.span = opts.Trace.StartSpan("solve", obs.Attrs{"name": opts.Name})
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		m.stop.Store(true)
		m.span.Event("cancelled", obs.Attrs{"reason": "context expired before start"})
	} else if done := ctx.Done(); done != nil {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			select {
			case <-done:
				m.stop.Store(true)
				m.span.Event("cancelled", obs.Attrs{"reason": "context done"})
			case <-m.quit:
			}
		}()
	}
	if opts.OnProgress != nil {
		interval := opts.Interval
		if interval <= 0 {
			interval = time.Second
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					opts.OnProgress(m.Snapshot())
				case <-m.quit:
					return
				}
			}
		}()
	}
	return m
}

// Close releases the watcher goroutines and publishes the end-of-solve
// telemetry (duration histogram, cancellation counter, span_end).
// Idempotent and nil-safe.
func (m *Monitor) Close() {
	if m == nil {
		return
	}
	m.once.Do(func() {
		close(m.quit)
		cancelled := m.stop.Load()
		metricDurationMS.Observe(int64(time.Since(m.start) / time.Millisecond))
		if cancelled {
			metricCancelled.Inc()
		}
		m.span.End(obs.Attrs{
			"explored":  m.explored.Load(),
			"pruned":    m.pruned.Load(),
			"cancelled": cancelled,
		})
	})
	m.wg.Wait()
}

// Stopped reports whether the solve should wind down.
func (m *Monitor) Stopped() bool {
	return m != nil && m.stop.Load()
}

// Tick flushes locally-batched counters into the shared totals and
// reports the stop flag, so engines pay one atomic read per TickStride
// nodes instead of per node.
func (m *Monitor) Tick(explored, pruned int64) bool {
	if m == nil {
		return false
	}
	if explored != 0 {
		m.explored.Add(explored)
		metricExplored.Add(explored)
	}
	if pruned != 0 {
		m.pruned.Add(pruned)
		metricPruned.Add(pruned)
	}
	return m.stop.Load()
}

// SetIncumbent records a new best objective value for telemetry. Engines
// call it from their (already mutex-serialized) incumbent-record paths.
func (m *Monitor) SetIncumbent(v int64) {
	if m == nil {
		return
	}
	m.incumbent.Store(v)
	m.hasIncumbent.Store(true)
	m.improvedAt.Store(int64(time.Since(m.start)))
	if m.span != nil {
		m.span.Event("incumbent", obs.Attrs{"value": v, "explored": m.explored.Load()})
	}
}

// Tracing reports whether this solve has a trace span, so callers can
// skip building the Attrs map (which allocates) when tracing is off.
func (m *Monitor) Tracing() bool {
	return m != nil && m.span != nil
}

// TraceEvent emits an event on the solve's span (engine-specific detail
// like per-trial routing stats). No-op without a span; guard with Tracing
// to avoid constructing attrs needlessly.
func (m *Monitor) TraceEvent(name string, attrs obs.Attrs) {
	if m == nil {
		return
	}
	m.span.Event(name, attrs)
}

// Explored returns the flushed explored-node total.
func (m *Monitor) Explored() int64 {
	if m == nil {
		return 0
	}
	return m.explored.Load()
}

// Pruned returns the flushed pruned-subtree total.
func (m *Monitor) Pruned() int64 {
	if m == nil {
		return 0
	}
	return m.pruned.Load()
}

// Elapsed returns the wall time since Start.
func (m *Monitor) Elapsed() time.Duration {
	if m == nil {
		return 0
	}
	return time.Since(m.start)
}

// Snapshot returns a consistent-enough Progress for display (counters are
// read individually; they may straddle a concurrent flush, which is fine
// for telemetry).
func (m *Monitor) Snapshot() Progress {
	if m == nil {
		return Progress{}
	}
	p := Progress{
		Solver:       m.name,
		Explored:     m.explored.Load(),
		Pruned:       m.pruned.Load(),
		Incumbent:    m.incumbent.Load(),
		HasIncumbent: m.hasIncumbent.Load(),
		Elapsed:      time.Since(m.start),
		Cancelled:    m.stop.Load(),
	}
	if p.HasIncumbent {
		if since := p.Elapsed - time.Duration(m.improvedAt.Load()); since > 0 {
			p.SinceImproved = since
		}
	}
	return p
}
