// Command perfbench is the repository benchmark: it hosts butterflyd's
// serve.Server in-process on an ephemeral loopback port, drives it over
// HTTP from the same process, checks every answer and prints one JSON
// result line.
//
//	go run . --workload serve-warm --seed 1 --seconds 20 --trace 0
//
// Workloads: serve-warm (LRU and store hits only), serve-mixed (hits
// sharing the cores with fresh solves) and certify (the paper's hardest
// exact certificates, one at a time). --trace 1 runs the workload again
// with in-memory spans around every call into a layer, writes them as
// JSONL under .bench_build/, and reports per-layer metrics instead of
// end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildDir is where a run keeps its scratch stores and span files,
// relative to the checkout root it runs from.
const buildDir = ".bench_build/perfbench"

func main() {
	workload := flag.String("workload", "", "serve-warm, serve-mixed or certify")
	seed := flag.Int64("seed", 1, "request-sequence seed")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	r := newRun(*workload, *seed, *seconds, *trace == 1)
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	root, err := tempDir(buildDir, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.tmp = root
	r.spansDir = filepath.Join(buildDir, "spans")
	err = r.dispatch()
	os.RemoveAll(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.finish()
}

func (r *run) dispatch() error {
	switch r.workload {
	case "serve-warm":
		return r.serveWarm()
	case "serve-mixed":
		return r.serveMixed()
	case "certify":
		return r.certify()
	}
	return fmt.Errorf("unknown --workload %q (want serve-warm, serve-mixed or certify)", r.workload)
}

// newRun is a run with the default repetition counts.
func newRun(workload string, seed int64, seconds float64, traced bool) *run {
	return &run{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		traced:   traced,
		conns:    runtime.NumCPU(),
		minReps:  certifyMinReps,
		began:    time.Now(),
		certs:    certifySet(),
		warmup:   warmupCert,
		e2e:      make(map[string]metric),
		layers:   make(map[string]metric),
	}
}

// ungatedTails are end-to-end tail latencies reported among the
// per-layer metrics, which carry no regression bound: on a shared 2-vCPU
// host their run-to-run spread follows the host's stalls and is wider
// than any bound the benchmark could fix (see README.md).
var ungatedTails = []string{"p99_ms", "hit_p99_ms"}

// result is the run's result line: end-to-end metrics, or per-layer ones
// for a traced run, which also carry the untraced pass's tail latencies.
func (r *run) result() summary {
	r.e2e["rss_mb"] = metric{peakRSSMiB(), "MiB"}
	for _, name := range ungatedTails {
		if m, ok := r.e2e[name]; ok && r.traced {
			r.layers[name] = m
		}
		delete(r.e2e, name)
	}
	out := r.e2e
	if r.traced {
		out = r.layers
	}
	return summary{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: out}
}

// finish prints the run's failures, error rate and metrics, then the
// result line.
func (r *run) finish() {
	for _, name := range ungatedTails {
		fmt.Printf("%s (ungated): %.6g ms\n", name, r.e2e[name].Value)
	}
	res := r.result()
	fmt.Printf("workload %s seed %d: %d requests, %d failed, error_rate %.6f\n",
		r.workload, r.seed, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for i, e := range r.errs {
		if i == 20 {
			fmt.Printf("  ... %d more\n", len(r.errs)-20)
			break
		}
		fmt.Println("  FAIL", e)
	}
	if r.traced {
		printMetrics("end-to-end (untraced pass)", r.e2e)
		printMetrics("tracing overhead (traced minus untraced)", r.overhead)
	}
	printMetrics("metrics", res.Metrics)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func printMetrics(title string, ms map[string]metric) {
	if len(ms) == 0 {
		return
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println(title + ":")
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// peakRSSMiB is the process's peak resident set (Linux reports ru_maxrss
// in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// spansPath names the traced run's JSONL file.
func (r *run) spansPath() string {
	return filepath.Join(r.spansDir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
}

// fail counts one failed request or check.
func (r *run) fail(what string, err error) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf("%s: %v", what, err))
}

// settle counts outcomes as attempted and checks each with check.
func (r *run) settle(phase string, outs []outcome, check func(o *outcome) error) {
	for i := range outs {
		r.attempted++
		o := &outs[i]
		err := checkOutcome(o)
		if err == nil && check != nil {
			err = check(o)
		}
		if err != nil {
			r.fail(fmt.Sprintf("%s %s %s", phase, o.ReqID, strings.TrimPrefix(o.Q.path(), "/v1/")), err)
		}
	}
}
