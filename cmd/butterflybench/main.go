// Command butterflybench drives a live butterflyd with an open-loop
// constant-QPS load and reports what the server did under it: µs-level
// client-side latency quantiles, achieved vs offered rate, the X-Cache
// hit/coalesced/store-hit breakdown, 429/503/422 rates, budget-truncated
// answers (X-Complete: false, the timeout class), and the server's
// own /debug/metrics deltas over the run — all in the same versioned
// run-manifest JSON the repo's other commands emit, so bench reports
// diff and archive like any other artifact (BENCH_pr9.json is one).
//
// The load is open loop: requests fire on their schedule regardless of
// how fast earlier ones complete, so an overloaded server shows up as
// queueing, rejections and tail latency instead of being hidden by a
// generator that politely waits (coordinated omission). The request
// sequence is a pure function of (-mix, -seed), so two runs with the
// same pair offer byte-identical workloads.
//
// Mixes: hit-heavy (LRU fast path), miss-heavy (every request a fresh
// solve), zipf-shapes (zipfian skew over butterfly sizes), storm
// (bursts of identical queries that must coalesce).
//
// -slo declares pass/fail objectives evaluated against the finished
// run; any failed objective makes the exit status 1:
//
//	butterflybench -target http://localhost:8080 -qps 500 -duration 30s \
//	    -mix zipf-shapes -slo p99=50ms,errors=1% -json bench.json
//
// -qps-sweep lo:hi:step replaces the single run with one run per offered
// rate and reports the latency-vs-offered-load curve (the bench.sweep
// manifest table) — where achieved rate stops tracking offered rate is
// the saturation point. SLOs are evaluated at every point:
//
//	butterflybench -target http://localhost:8080 -qps-sweep 100:1000:100 \
//	    -duration 10s -mix zipf-shapes -slo p99=50ms -json sweep.json
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/loadgen"
)

func main() {
	target := flag.String("target", "http://localhost:8080", "base URL of the butterflyd under test")
	qps := flag.Float64("qps", 100, "offered request rate (open loop)")
	qpsSweep := flag.String("qps-sweep", "", "sweep offered rates lo:hi:step, one run per point (overrides -qps)")
	duration := flag.Duration("duration", 10*time.Second, "run length; request count is qps x duration")
	mix := flag.String("mix", "hit-heavy", "request mix: hit-heavy, miss-heavy, zipf-shapes, storm")
	seed := flag.Int64("seed", 1, "request-sequence seed (same mix+seed = identical workload)")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "client-side per-request timeout")
	sloSpec := flag.String("slo", "", "objectives, e.g. p99=50ms,errors=1%,achieved=90% (failing any exits 1)")
	out := cli.RegisterOutput()
	flag.Parse()

	profile, perr := loadgen.ParseProfile(*mix)
	slos, serr := loadgen.ParseSLOs(*sloSpec)
	var sweep []float64
	var swerr error
	if *qpsSweep != "" {
		sweep, swerr = loadgen.ParseSweep(*qpsSweep)
	}
	cli.Validate(perr, serr, swerr)
	checkRate := []float64{*qps}
	if sweep != nil {
		checkRate = sweep
	}
	for _, q := range checkRate {
		if q <= 0 || int(q*duration.Seconds()) < 1 {
			fmt.Fprintf(os.Stderr, "butterflybench: %g qps over -duration %s plans no requests\n", q, *duration)
			os.Exit(2)
		}
	}

	out.Start("butterflybench")

	// Preflight: one probe request with a caller-chosen X-Request-ID. A
	// dead target fails here with a clear message instead of a report
	// full of transport errors; a live one must echo the ID back (the
	// contract that lets a bench latency outlier be matched to its
	// server-side access-log line and trace spans).
	probeID := fmt.Sprintf("bench-probe-%d", os.Getpid())
	if err := probe(*target, probeID, *reqTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "butterflybench: preflight: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := loadgen.Options{
		BaseURL:  *target,
		Profile:  profile,
		Seed:     *seed,
		QPS:      *qps,
		Duration: *duration,
		Timeout:  *reqTimeout,
		SLOs:     slos,
	}

	if sweep != nil {
		fmt.Fprintf(os.Stderr, "butterflybench: %s sweep %s (%d points x %s) against %s (seed %d)\n",
			profile, *qpsSweep, len(sweep), *duration, *target, *seed)
		points, err := loadgen.RunSweep(ctx, opt, sweep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "butterflybench: %v\n", err)
			os.Exit(1)
		}
		printSweepSummary(points)
		out.Finish(loadgen.BuildSweepReport(opt, points))
		if !loadgen.SweepAllPass(points) {
			os.Exit(1)
		}
		return
	}

	fmt.Fprintf(os.Stderr, "butterflybench: %s @ %g qps for %s against %s (seed %d)\n",
		profile, *qps, *duration, *target, *seed)
	res, err := loadgen.Run(ctx, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "butterflybench: %v\n", err)
		os.Exit(1)
	}

	results := res.Evaluate(slos)
	printSummary(res, results)
	out.Finish(loadgen.BuildReport(opt, res, results))

	if !loadgen.AllPass(results) {
		os.Exit(1)
	}
}

// probe sends one cheap query carrying id as X-Request-ID and verifies
// the daemon answers and echoes the ID.
func probe(target, id string, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}
	req, err := http.NewRequest(http.MethodGet, target+"/v1/bisection?network=bn&n=4", nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Request-ID", id)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("probe query: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != id {
		return fmt.Errorf("X-Request-ID not echoed: sent %q, got %q", id, got)
	}
	return nil
}

// printSweepSummary renders the latency-vs-offered-load curve, one line
// per sweep point; the -json manifest carries it as the bench.sweep table.
func printSweepSummary(points []loadgen.SweepPoint) {
	fmt.Printf("%10s %10s %9s %8s %9s %9s %9s %6s\n",
		"offered", "achieved", "completed", "err%", "p50", "p95", "p99", "slo")
	us := func(v float64) string {
		return (time.Duration(v) * time.Microsecond).Round(time.Microsecond).String()
	}
	for _, p := range points {
		verdict := "PASS"
		if !loadgen.AllPass(p.SLOs) {
			verdict = "FAIL"
		}
		if len(p.SLOs) == 0 {
			verdict = "-"
		}
		r := p.Result
		fmt.Printf("%10.1f %10.1f %9d %7.1f%% %9s %9s %9s %6s\n",
			p.QPS, r.AchievedQPS, r.Completed, r.ErrorRate()*100,
			us(r.Overall.Quantile(0.50)), us(r.Overall.Quantile(0.95)),
			us(r.Overall.Quantile(0.99)), verdict)
	}
}

// printSummary renders the human-readable run report on stdout; the
// -json manifest carries the same numbers machine-readably.
func printSummary(res *loadgen.Result, slos []loadgen.SLOResult) {
	fmt.Printf("requests   %d planned, %d completed (%.1f%% errors)\n",
		res.Planned, res.Completed, res.ErrorRate()*100)
	fmt.Printf("rate       offered %.1f qps, achieved %.1f qps",
		res.OfferedQPS, res.AchievedQPS)
	if res.BehindSchedule > 0 {
		fmt.Printf("  [generator lagged on %d dispatches, worst %s — client-side saturation]",
			res.BehindSchedule, time.Duration(res.MaxLagUS)*time.Microsecond)
	}
	fmt.Println()
	us := func(v float64) string {
		return (time.Duration(v) * time.Microsecond).Round(time.Microsecond).String()
	}
	mean := 0.0
	if res.Overall.Count > 0 {
		mean = float64(res.Overall.Sum) / float64(res.Overall.Count)
	}
	fmt.Printf("latency    mean %s  p50 %s  p95 %s  p99 %s  max %s\n",
		us(mean), us(res.Overall.Quantile(0.50)), us(res.Overall.Quantile(0.95)),
		us(res.Overall.Quantile(0.99)), time.Duration(res.Overall.Max)*time.Microsecond)
	fmt.Printf("outcomes  ")
	for _, class := range res.OutcomeClassesPresent() {
		fmt.Printf(" %s=%d", class, res.Outcomes[class])
	}
	fmt.Println()
	for _, s := range slos {
		verdict := "PASS"
		if !s.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("slo        %-4s %-9s want %-10s got %-10s\n", verdict, s.Name, s.Threshold, s.Actual)
	}
}
