// Package loadgen is the serving-side benchmark harness behind
// cmd/butterflybench: an open-loop constant-QPS generator that drives a
// live butterflyd over HTTP with deterministic request-mix profiles,
// records client-side latency into µs-resolution histograms, scrapes the
// daemon's /debug/metrics before and after, and evaluates the run
// against declared latency/error SLOs.
//
// Open loop matters: requests fire on the offered schedule regardless of
// how fast earlier ones complete, so a slow server accumulates in-flight
// work and its queueing behavior (429/503, coordinated omission) is
// measured instead of hidden. The request sequence is a pure function of
// (profile, seed), so two runs differ only by the server under test.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Outcome classes the harness distinguishes: the server's
// serve.requests.* labels that a client can tell apart by status and
// X-Cache (a budget-truncated 200, the server's timeout, reads as ok),
// plus the client-only other and transport classes. Fixed and
// pre-registered so the hot recording path is map-lookup + atomics.
var outcomeClasses = []string{
	"ok", "cache_hit", "store_hit", "coalesced", "peer",
	"400", "405", "422", "429", "500", "503", "other", "transport",
}

// classify maps one completed request onto its outcome class from the
// client-visible evidence: HTTP status and the X-Cache header.
func classify(status int, xcache string) string {
	if status == http.StatusOK {
		switch xcache {
		case "hit":
			return "cache_hit"
		case "store-hit":
			return "store_hit"
		case "coalesced":
			return "coalesced"
		case "peer":
			return "peer"
		}
		return "ok"
	}
	s := fmt.Sprintf("%d", status)
	for _, c := range outcomeClasses {
		if c == s {
			return s
		}
	}
	return "other"
}

// errorClass reports whether an outcome counts against the errors SLO:
// every rejection, failure and transport error; served answers (cache,
// store, coalesced, peer-relayed, fresh) do not.
func errorClass(class string) bool {
	switch class {
	case "ok", "cache_hit", "store_hit", "coalesced", "peer":
		return false
	}
	return true
}

// Options configures one bench run.
type Options struct {
	// BaseURL roots every request, e.g. "http://localhost:8080".
	BaseURL string
	// Profile picks the request mix; Seed pins its sequence.
	Profile Profile
	Seed    int64
	// QPS is the offered open-loop rate; Duration the run length. The
	// request count is floor(QPS · Duration).
	QPS      float64
	Duration time.Duration
	// Timeout bounds each request client-side (≤0: 10s).
	Timeout time.Duration
	// SLOs are evaluated against the finished run (may be empty).
	SLOs []SLO
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	return o
}

// Result is one finished run: schedule accounting, outcome counts and
// µs latency distributions, overall and per outcome class.
type Result struct {
	Planned   int
	Completed int
	Elapsed   time.Duration
	// OfferedQPS is the configured rate; AchievedQPS what actually
	// completed per second of run wall time.
	OfferedQPS  float64
	AchievedQPS float64
	// BehindSchedule counts requests dispatched more than one interval
	// after their slot (the generator itself lagging — on a saturated
	// client box the offered rate is not credible and the report says so);
	// MaxLagUS is the worst dispatch lag observed.
	BehindSchedule int
	MaxLagUS       int64

	Outcomes   map[string]int64
	Overall    obs.HistogramSnapshot
	PerOutcome map[string]obs.HistogramSnapshot

	// MetricsBefore/After are the daemon's /debug/metrics snapshots
	// bracketing the run (nil when the scrape failed — a non-butterflyd
	// target is still benchable).
	MetricsBefore map[string]interface{}
	MetricsAfter  map[string]interface{}
}

// ErrorRate is the fraction of completed requests whose outcome counts
// as an error (rejections, failures, transport errors).
func (r *Result) ErrorRate() float64 {
	if r.Completed == 0 {
		return 0
	}
	errs := int64(0)
	for class, n := range r.Outcomes {
		if errorClass(class) {
			errs += n
		}
	}
	return float64(errs) / float64(r.Completed)
}

// recorder accumulates per-request observations from the firing
// goroutines: allocation-free histograms plus one small mutex-guarded
// counter map.
type recorder struct {
	overall obs.Histogram
	mu      sync.Mutex
	counts  map[string]int64
	hists   map[string]*obs.Histogram
}

func newRecorder() *recorder {
	r := &recorder{counts: make(map[string]int64), hists: make(map[string]*obs.Histogram)}
	for _, c := range outcomeClasses {
		r.hists[c] = &obs.Histogram{}
	}
	return r
}

func (r *recorder) observe(class string, us int64) {
	r.overall.Observe(us)
	r.hists[class].Observe(us)
	r.mu.Lock()
	r.counts[class]++
	r.mu.Unlock()
}

// ScrapeMetrics fetches and decodes a /debug/metrics snapshot.
func ScrapeMetrics(client *http.Client, baseURL string) (map[string]interface{}, error) {
	resp, err := client.Get(baseURL + "/debug/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics scrape: status %d", resp.StatusCode)
	}
	var m map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return m, nil
}

// Run drives one open-loop bench: requests fire at their scheduled
// instants (i·interval past start) in their own goroutines, every
// response is drained, classified and timed, and the daemon's metrics
// registry is scraped before and after. Cancelling ctx stops dispatch;
// already-fired requests still complete and are counted.
func Run(ctx context.Context, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	total := int(opt.QPS * opt.Duration.Seconds())
	if total < 1 || opt.QPS <= 0 {
		return nil, fmt.Errorf("loadgen: qps %g over %s plans no requests", opt.QPS, opt.Duration)
	}
	paths := Requests(opt.Profile, opt.Seed, total)
	interval := time.Duration(float64(time.Second) / opt.QPS)

	client := &http.Client{
		Timeout: opt.Timeout,
		Transport: &http.Transport{
			// The open loop can legitimately hold hundreds of requests in
			// flight against a slow server; don't strangle it on two idle
			// conns per host (the net/http default).
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		},
	}

	before, _ := ScrapeMetrics(client, opt.BaseURL)

	rec := newRecorder()
	res := &Result{
		Planned:    total,
		OfferedQPS: opt.QPS,
	}
	var lagMu sync.Mutex

	var wg sync.WaitGroup
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
dispatch:
	for i := 0; i < total; i++ {
		slot := start.Add(time.Duration(i) * interval)
		if wait := time.Until(slot); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		} else if ctx.Err() != nil {
			break dispatch
		}
		if lag := time.Since(slot); lag > interval {
			lagMu.Lock()
			res.BehindSchedule++
			if us := int64(lag / time.Microsecond); us > res.MaxLagUS {
				res.MaxLagUS = us
			}
			lagMu.Unlock()
		}
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			fired := time.Now()
			class := "transport"
			resp, err := client.Get(opt.BaseURL + path)
			if err == nil {
				// Drain so the connection is reusable; the body content is
				// the server's business, the latency to the last byte ours.
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				class = classify(resp.StatusCode, resp.Header.Get("X-Cache"))
			}
			rec.observe(class, int64(time.Since(fired)/time.Microsecond))
		}(paths[i])
	}
	wg.Wait()
	res.Elapsed = time.Since(start)

	after, _ := ScrapeMetrics(client, opt.BaseURL)

	res.MetricsBefore, res.MetricsAfter = before, after
	res.Overall = rec.overall.Snapshot()
	res.Outcomes = make(map[string]int64)
	res.PerOutcome = make(map[string]obs.HistogramSnapshot)
	rec.mu.Lock()
	for class, n := range rec.counts {
		res.Outcomes[class] = n
		res.Completed += int(n)
	}
	rec.mu.Unlock()
	for _, class := range outcomeClasses {
		if snap := rec.hists[class].Snapshot(); snap.Count > 0 {
			res.PerOutcome[class] = snap
		}
	}
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.AchievedQPS = float64(res.Completed) / secs
	}
	return res, nil
}

// OutcomeClassesPresent lists the result's outcome classes in canonical
// order (report rendering wants stable row order).
func (r *Result) OutcomeClassesPresent() []string {
	present := make([]string, 0, len(r.Outcomes))
	for _, c := range outcomeClasses {
		if r.Outcomes[c] > 0 {
			present = append(present, c)
		}
	}
	// Anything unexpected still renders, last, sorted.
	extra := make([]string, 0)
	for c := range r.Outcomes {
		known := false
		for _, k := range outcomeClasses {
			if c == k {
				known = true
				break
			}
		}
		if !known {
			extra = append(extra, c)
		}
	}
	sort.Strings(extra)
	return append(present, extra...)
}
