package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Workload parameters. The open-loop rates sit well below each
// workload's sat_qps; the LRU bounds sit below each key set.
const (
	warmRate  = 500.0 // req/s
	warmLRU   = 48    // entries, of ~150 catalogue keys
	mixedRate = 60.0  // req/s
	mixedLRU  = 16    // entries, of 32 popular keys plus the never-seen ones
	setupReps = 3     // set-ups per run; setup_s is their median

	// openShare is the part of --seconds the open-loop latency phase
	// gets; the closed-loop replay and the certificate pass follow it.
	openShare = 0.5

	serveTimeout   = 15 * time.Second // client timeout of serve requests
	certifyTimeout = 65 * time.Second // certify asks the server for 60s
	certifyHitAsks = 40               // cache-hit re-asks per certify key
	satMinWall     = 2 * time.Second  // least closed-loop time behind sat_qps
	satMinPasses   = 3                // least closed-loop passes behind sat_qps
	tailPasses     = 3                // certificate passes closing a serve run
	certifyMinReps = 3                // certify repetitions per run, at least
	// maxLateFrac is the share of open-loop dispatches later than one
	// interval above which a pass is flagged invalid.
	maxLateFrac = 0.05
	// sendCutoff stops sending new requests this long into a run, so a
	// hanging server still yields a finished run within 180 s; requests
	// not sent count as failed.
	sendCutoff = 100 * time.Second
)

// run is one benchmark process: its parameters, its failure accounting
// and the metrics it reports.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	conns    int
	tmp      string
	spansDir string
	began    time.Time
	// minReps is the least number of certify repetitions per run; certs
	// and warmup are the certificate set and its warm-up certificate.
	minReps int
	certs   []certKey
	warmup  certKey

	attempted, failed int
	errs              []string

	e2e, layers, overhead map[string]metric
	rec                   *recorder
}

func (r *run) cutoff() time.Time { return r.began.Add(sendCutoff) }

// counterNames are the obs.Default counters the benchmark reads as
// deltas. A counter a later version drops reads as zero.
var counterNames = []string{
	"serve.solves", "serve.coalesced", "serve.cache_spills", "serve.rejected_429",
	"serve.rejected_503", "serve.cache_hits", "store.hits", "store.read_errors",
	"solve.nodes_explored", "solve.nodes_pruned", "solve.monitors_cancelled",
	"heuristic.bisect_starts", "construct.words_evaluated", "graph.arena_bytes",
	"route.trials_completed", "route.trials_discarded",
}

type counters map[string]int64

func readCounters() counters {
	c := make(counters, len(counterNames))
	for _, n := range counterNames {
		c[n] = obs.Default.Counter(n).Value()
	}
	return c
}

// since returns the counters' growth from before to now.
func (before counters) since() counters {
	now := readCounters()
	d := make(counters, len(now))
	for n, v := range now {
		d[n] = v - before[n]
	}
	return d
}

// phase is one measured pass of a workload's request sequence.
type phase struct {
	outs    []outcome
	book    *bodyBook
	delta   counters
	allocKB float64
	gcs     uint32
}

// openPhase fires seq open-loop at rate against d, bracketing it with
// counter and runtime deltas. rec, when non-nil, receives the spans.
func (r *run) openPhase(c *client, d *daemon, seq []query, rate float64, tag string, book *bodyBook, rec *recorder) phase {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := readCounters()
	id, end := rec.begin(0, "phase.open_loop")
	outs := c.openLoop(d.url, seq, rate, fmt.Sprintf("%s-s%d", tag, r.seed), book, rec, id)
	p := phase{outs: outs, book: book}
	end()
	p.delta = before.since()
	runtime.ReadMemStats(&m1)
	p.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	p.gcs = m1.NumGC - m0.NumGC
	return p
}

// latencyMetrics are the open-loop end-to-end metrics of one pass.
func latencyMetrics(outs []outcome) map[string]metric {
	var all, hits, solves []float64
	for i := range outs {
		o := &outs[i]
		if o.Err != nil {
			continue
		}
		l := ms(o.Latency)
		all = append(all, l)
		if o.hit() {
			hits = append(hits, l)
		} else if o.solved() {
			solves = append(solves, l)
		}
	}
	m := map[string]metric{
		"p50_ms":     {median(all), "ms"},
		"p99_ms":     {quantile(all, 0.99), "ms"},
		"hit_p99_ms": {quantile(hits, 0.99), "ms"},
	}
	if len(solves) > 0 {
		m["solve_p50_ms"] = metric{median(solves), "ms"}
	}
	fmt.Printf("open loop: %d requests (%d hits, %d solves) p50 %.3f ms p99 %.3f ms hit p99 %.3f ms\n",
		len(all), len(hits), len(solves), m["p50_ms"].Value, m["p99_ms"].Value, m["hit_p99_ms"].Value)
	return m
}

// generatorMetrics report how far the open-loop generator fell behind
// its schedule: dispatches later than one interval, and the worst lag.
func generatorMetrics(outs []outcome, rate float64) (lateFrac, maxLagMS float64) {
	interval := time.Duration(float64(time.Second) / rate)
	late := 0
	var worst time.Duration
	for i := range outs {
		if outs[i].Lag > interval {
			late++
		}
		if outs[i].Lag > worst {
			worst = outs[i].Lag
		}
	}
	return ratio(float64(late), float64(len(outs))), ms(worst)
}

// serveWorkload describes serve-warm or serve-mixed to runServe.
type serveWorkload struct {
	rate float64
	seq  []query
	// first is the daemon set-up left running; fresh builds another one
	// in the same starting state (store contents, warm hot set).
	first *daemon
	fresh func(tag string) (*daemon, error)
	// book returns the body book for a pass on a fresh server; check is
	// the workload's answer check beyond checkOutcome.
	book  func() *bodyBook
	check func(o *outcome) error
	// setupSolveMS, when set, are the fresh-solve latencies of set-up
	// (serve-warm solves nothing once set up).
	setupSolveMS []float64
	setupS       []float64
	// setupKeys are the keys set-up solved, replayed for the solve
	// overhead when the run itself solves nothing.
	setupKeys []query
	// noSolves asserts serve.solves stays put during the run.
	noSolves bool
}

// runServe drives a serve workload: the open-loop latency phase, the
// closed-loop saturation replay on a fresh server and the certificate
// pass; traced runs repeat each with spans, then replay in-process and
// call the layers directly.
func (r *run) runServe(w serveWorkload) error {
	c := newClient(r.conns, serveTimeout)
	defer c.close()
	r.e2e["setup_s"] = metric{median(w.setupS), "s"}

	seq := w.seq
	if r.traced {
		seq = seq[:len(seq)/2]
	}
	a := r.openPhase(c, w.first, seq, w.rate, "open", w.book(), nil)
	if err := w.first.stop(); err != nil {
		r.fail("stop", err)
	}
	r.settle("open loop", a.outs, w.check)
	r.checkNoSolves(w, a)
	for k, v := range latencyMetrics(a.outs) {
		r.e2e[k] = v
	}
	if w.setupSolveMS != nil {
		r.e2e["solve_p50_ms"] = metric{median(w.setupSolveMS), "ms"}
	}
	lateFrac, maxLag := generatorMetrics(a.outs, w.rate)
	r.flagGenerator(lateFrac, maxLag)
	r.e2e["sat_qps"] = metric{r.satPhase(c, w, seq, nil), "req/s"}
	certS, ee := r.certifyTail(nil, tailPasses)
	r.e2e["certify_s"] = metric{certS, "s"}
	r.e2e["ee_w16_12_s"] = metric{ee, "s"}
	if !r.traced {
		return nil
	}

	// Traced pass: the same sequence and rate on a fresh server in the
	// same state, with spans.
	r.rec = newRecorder()
	d, err := w.fresh("traced")
	if err != nil {
		return err
	}
	b := r.openPhase(c, d, seq, w.rate, "traced", w.book(), r.rec)
	if err := d.stop(); err != nil {
		r.fail("stop", err)
	}
	r.settle("traced open loop", b.outs, w.check)
	r.checkNoSolves(w, b)
	traced := latencyMetrics(b.outs)
	if w.setupSolveMS != nil {
		traced["solve_p50_ms"] = r.e2e["solve_p50_ms"]
	}
	traced["sat_qps"] = metric{r.satPhase(c, w, seq, r.rec), "req/s"}
	tc, te := r.certifyTail(r.rec, 1)
	traced["certify_s"] = metric{tc, "s"}
	traced["ee_w16_12_s"] = metric{te, "s"}
	traced["setup_s"] = r.e2e["setup_s"]
	r.overhead = diffMetrics(traced, r.e2e)

	r.layers["client.late_frac"] = metric{lateFrac, "fraction"}
	r.layers["client.max_lag_ms"] = metric{maxLag, "ms"}
	r.layers["runtime.alloc_kb_per_req"] = metric{ratio(a.allocKB, float64(len(a.outs))), "KiB"}
	r.layers["runtime.gc_cycles"] = metric{float64(a.gcs), "count"}
	r.counterLayers(b.delta, len(b.outs))
	r.connWait(b.outs)
	return r.serveLayers(w, seq, b)
}

// checkNoSolves fails a serve-warm pass during which serve.solves moved.
func (r *run) checkNoSolves(w serveWorkload, p phase) {
	if w.noSolves && p.delta["serve.solves"] != 0 {
		r.fail(r.workload, fmt.Errorf("serve.solves moved by %d during the run", p.delta["serve.solves"]))
	}
}

// satPhase replays seq closed-loop, one client per core, each pass on a
// fresh server, for at least satMinPasses passes (one when traced) and
// satMinWall of replay, and returns the median pass's completions per
// second.
func (r *run) satPhase(c *client, w serveWorkload, seq []query, rec *recorder) float64 {
	id, end := rec.begin(0, "phase.closed_loop")
	defer end()
	var rates []float64
	var wall time.Duration
	// A traced run only needs the overhead, so one pass per kind.
	minPasses := satMinPasses
	if r.traced {
		minPasses = 1
	}
	for pass := 0; pass < minPasses || wall < satMinWall; pass++ {
		d, err := w.fresh(fmt.Sprintf("sat%d", pass))
		if err != nil {
			r.fail("sat set-up", err)
			return 0
		}
		outs, took := c.closedLoop(d.url, seq, fmt.Sprintf("sat%d-s%d", pass, r.seed), w.book(), r.cutoff())
		for i := range outs {
			outs[i].record(rec, id)
		}
		if err := d.stop(); err != nil {
			r.fail("stop", err)
		}
		r.settle("closed loop", outs, w.check)
		rates = append(rates, float64(len(outs))/took.Seconds())
		wall += took
	}
	qps := median(rates)
	fmt.Printf("closed loop: %d passes of %d requests in %.3f s, median %.1f req/s\n", len(rates), len(seq), wall.Seconds(), qps)
	return qps
}

// flagGenerator marks an open-loop pass whose generator fell behind:
// its latencies are the client's, not the server's.
func (r *run) flagGenerator(lateFrac, maxLagMS float64) {
	valid := lateFrac <= maxLateFrac
	fmt.Printf("generator: late_frac %.4f max_lag_ms %.3f valid %v\n", lateFrac, maxLagMS, valid)
	if !valid {
		fmt.Println("INVALID: the open-loop generator fell behind its schedule; latency figures are not server latency")
	}
}

func diffMetrics(a, b map[string]metric) map[string]metric {
	out := make(map[string]metric, len(a))
	for k, v := range a {
		out[k] = metric{v.Value - b[k].Value, v.Unit}
	}
	return out
}

// serveWarm: set-up solves the catalogue once into a fresh store, then a
// new server with an LRU below the catalogue size serves zipf-popular
// keys from its LRU and the store; no engine runs.
func (r *run) serveWarm() error {
	cat := warmCatalogue()
	c := newClient(r.conns, serveTimeout)
	defer c.close()
	want := make(map[string][]byte, len(cat))
	w := serveWorkload{rate: warmRate, noSolves: true, setupKeys: cat}
	var dir string
	for rep := 0; rep < setupReps; rep++ {
		if w.first != nil {
			if err := w.first.stop(); err != nil {
				r.fail("stop", err)
			}
		}
		began := time.Now()
		var err error
		if dir, err = tempDir(r.tmp, "warm-store-*"); err != nil {
			return err
		}
		filler, err := startDaemon(serve.Config{CacheEntries: 4 * len(cat)}, dir)
		if err != nil {
			return err
		}
		fill, _ := c.closedLoop(filler.url, cat, fmt.Sprintf("fill%d-s%d", rep, r.seed), nil, r.cutoff())
		if err := filler.stop(); err != nil {
			r.fail("stop", err)
		}
		for i := range fill {
			want[fill[i].Q.path()] = fill[i].Body
		}
		d, warmup, err := startWarm(c, dir, cat, fmt.Sprintf("warmup%d", rep))
		if err != nil {
			return err
		}
		w.first = d
		w.setupS = append(w.setupS, time.Since(began).Seconds())

		r.settle("set-up fill", fill, func(o *outcome) error {
			if o.Source != "miss" {
				return fmt.Errorf("X-Cache %q, want a fresh solve", o.Source)
			}
			return nil
		})
		for i := range fill {
			w.setupSolveMS = append(w.setupSolveMS, ms(fill[i].Latency))
		}
		book := newBook(want)
		for i := range warmup {
			book.note(&warmup[i])
		}
		r.settle("warm-up", warmup, nil)
	}
	storeDir := dir
	book := newBook(want)
	w.book = func() *bodyBook { return book }
	w.check = func(o *outcome) error {
		if !o.hit() {
			return fmt.Errorf("X-Cache %q, want hit or store-hit", o.Source)
		}
		return nil
	}
	w.fresh = func(tag string) (*daemon, error) {
		d, warmup, err := startWarm(c, storeDir, cat, tag)
		for i := range warmup {
			book.note(&warmup[i])
		}
		r.settle(tag+" warm-up", warmup, w.check)
		return d, err
	}
	w.seq = warmSequence(r.seed, int(warmRate*r.seconds*openShare), cat)
	return r.runServe(w)
}

// startWarm starts serve-warm's server over the filled store and warms
// its LRU with the hot set, coldest first, so the hottest key is the
// most recently used.
func startWarm(c *client, dir string, cat []query, tag string) (*daemon, []outcome, error) {
	d, err := startDaemon(serve.Config{CacheEntries: warmLRU}, dir)
	if err != nil {
		return nil, nil, err
	}
	var outs []outcome
	for rank := warmLRU - 1; rank >= 0; rank-- {
		outs = append(outs, c.do(d.url, cat[rank], fmt.Sprintf("%s-%d", tag, rank), time.Now()))
	}
	return d, outs, nil
}

// serveMixed: a fresh server over an empty store, an LRU smaller than
// its key set, zipf-popular keys plus a steady share of never-seen
// routing keys; hits share the cores with solves.
func (r *run) serveMixed() error {
	w := serveWorkload{rate: mixedRate}
	start := func(tag string) (*daemon, error) {
		dir, err := tempDir(r.tmp, "mixed-store-*")
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(serve.Config{CacheEntries: mixedLRU}, dir)
		if err != nil {
			return nil, err
		}
		// Ready check: one round trip per connection the client opens.
		for i := 0; i < r.conns; i++ {
			resp, err := http.Get(d.url + "/healthz")
			if err != nil {
				return d, err
			}
			resp.Body.Close()
		}
		return d, nil
	}
	c := newClient(r.conns, serveTimeout)
	defer c.close()
	for rep := 0; rep < setupReps; rep++ {
		if w.first != nil {
			if err := w.first.stop(); err != nil {
				r.fail("stop", err)
			}
		}
		began := time.Now()
		if err := r.primeFresh(c, rep); err != nil {
			return err
		}
		d, err := start("setup")
		if err != nil {
			return err
		}
		w.first = d
		w.setupS = append(w.setupS, time.Since(began).Seconds())
	}
	// Every 200 body for one key within a pass is the same bytes; each
	// pass starts its own book, as each fresh server renders its own.
	w.fresh = start
	w.book = func() *bodyBook { return newBook(nil) }
	// Whole cycles of the never-seen shapes, so every seed runs the same
	// mix of them.
	cycle := mixedFreshK * len(freshShapes)
	n := cycle * max(1, int(mixedRate*r.seconds*openShare)/cycle)
	w.seq = mixedSequence(r.seed, n, mixedPopular())
	return r.runServe(w)
}

// primeFresh solves one key of every never-seen shape on a throwaway
// server, so the process-global route index holds each shape before the
// timed phases start; the primed keys use negative seeds, which the
// sequence never draws.
func (r *run) primeFresh(c *client, rep int) error {
	d, err := startDaemon(serve.Config{}, "")
	if err != nil {
		return err
	}
	seq := make([]query, len(freshShapes))
	for i, q := range freshShapes {
		q.Seed = -int64(1 + rep)
		seq[i] = q
	}
	outs, _ := c.closedLoop(d.url, seq, fmt.Sprintf("prime%d-s%d", rep, r.seed), nil, r.cutoff())
	if err := d.stop(); err != nil {
		r.fail("stop", err)
	}
	r.settle("set-up prime", outs, nil)
	return nil
}

// certifyPass asks every certify key once, one request at a time, then
// re-asks each hitAsks times (cache hits, which must repeat the solved
// bytes). It returns the solve outcomes, the hit outcomes and the wall
// time of the solves.
func (r *run) certifyPass(c *client, d *daemon, tag string, hitAsks int, rec *recorder, parent int64) ([]outcome, []outcome, time.Duration) {
	set := r.certs
	book := newBook(nil)
	solves := make([]outcome, len(set))
	var wall time.Duration
	for i, ck := range set {
		id := fmt.Sprintf("%s-s%d-%d", tag, r.seed, i)
		if time.Now().After(r.cutoff()) {
			solves[i] = outcome{Q: ck.Q, ReqID: id, Err: fmt.Errorf("not sent: run cutoff")}
			continue
		}
		solves[i] = c.do(d.url, ck.Q, id, time.Now())
		book.note(&solves[i])
		solves[i].record(rec, parent)
		wall += solves[i].Latency
	}
	var hits []outcome
	for i, ck := range set {
		for j := 0; j < hitAsks && solves[i].Err == nil; j++ {
			o := c.do(d.url, ck.Q, fmt.Sprintf("%s-s%d-%d-hit%d", tag, r.seed, i, j), time.Now())
			book.note(&o)
			o.record(rec, parent)
			hits = append(hits, o)
		}
	}
	r.settle("certify", solves, func(o *outcome) error {
		for _, ck := range set {
			if ck.Q.path() == o.Q.path() {
				return checkBody(o.Q, o.Body, ck.Pins)
			}
		}
		return nil
	})
	r.settle("certify hit", hits, func(o *outcome) error {
		if o.Source != "hit" {
			return fmt.Errorf("X-Cache %q, want hit", o.Source)
		}
		return nil
	})
	return solves, hits, wall
}

// certifyTail closes a serve workload, so every workload reports
// certify_s and ee_w16_12_s: passes certificate passes, each on a fresh
// server exactly as certify runs a repetition. It returns the medians.
func (r *run) certifyTail(rec *recorder, passes int) (certS, eeS float64) {
	c := newClient(1, certifyTimeout)
	defer c.close()
	var walls, ees []float64
	for pass := 0; pass < passes; pass++ {
		d, err := startDaemon(serve.Config{}, "")
		if err != nil {
			r.fail("certify set-up", err)
			return 0, 0
		}
		r.warmExact(c, d, fmt.Sprintf("tail%d-s%d", pass, r.seed))
		id, end := rec.begin(0, "phase.certify")
		solves, _, wall := r.certifyPass(c, d, fmt.Sprintf("tail%d", pass), 0, rec, id)
		end()
		if err := d.stop(); err != nil {
			r.fail("stop", err)
		}
		walls = append(walls, wall.Seconds())
		ees = append(ees, solves[0].Latency.Seconds())
	}
	fmt.Printf("certificate passes: certify_s %.3f s, ee_w16_12_s %.3f s\n", walls, ees)
	return median(walls), median(ees)
}

// warmExact asks d for the warm-up certificate, which primes the exact
// engine before a timed certificate pass.
func (r *run) warmExact(c *client, d *daemon, tag string) {
	o := c.do(d.url, r.warmup.Q, tag+"-warmup", time.Now())
	r.settle("certify warm-up", []outcome{o}, func(o *outcome) error {
		return checkBody(o.Q, o.Body, r.warmup.Pins)
	})
}

// certifyRep is one certify repetition: its set-up time, the pass's
// outcomes and the counter and runtime deltas around the pass.
type certifyRep struct {
	setupS  float64
	solves  []outcome
	hits    []outcome
	wall    time.Duration
	delta   counters
	allocKB float64
	gcs     uint32
}

// certifyOnce sets up a fresh server — start, ready check, and a warm-up
// certificate NE(W32,k<=8) that primes the exact engine — then runs one
// certificate pass with cache-hit re-asks.
func (r *run) certifyOnce(c *client, tag string, rec *recorder) (certifyRep, error) {
	var rep certifyRep
	began := time.Now()
	d, err := startDaemon(serve.Config{}, "")
	if err != nil {
		return rep, err
	}
	r.warmExact(c, d, tag)
	rep.setupS = time.Since(began).Seconds()

	parent, end := rec.begin(0, "phase.certify")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := readCounters()
	rep.solves, rep.hits, rep.wall = r.certifyPass(c, d, tag, certifyHitAsks, rec, parent)
	rep.delta = before.since()
	runtime.ReadMemStats(&m1)
	end()
	rep.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
	rep.gcs = m1.NumGC - m0.NumGC
	if err := d.stop(); err != nil {
		r.fail("stop", err)
	}
	fmt.Printf("certify %s: %.3f s, EE(W16,12) %.3f s, set-up %.3f s\n", tag, rep.wall.Seconds(), rep.solves[0].Latency.Seconds(), rep.setupS)
	return rep, nil
}

// certifyMetrics are the end-to-end metrics of a list of repetitions:
// medians over repetitions, and the p99s as the median of each
// repetition's own p99, so one stall of the machine moves one repetition.
func certifyMetrics(reps []certifyRep) map[string]metric {
	var setups, walls, ees, lat, p99s, hitP99s []float64
	var solved time.Duration
	for _, rep := range reps {
		setups = append(setups, rep.setupS)
		walls = append(walls, rep.wall.Seconds())
		ees = append(ees, rep.solves[0].Latency.Seconds())
		var l, h []float64
		for i := range rep.solves {
			l = append(l, ms(rep.solves[i].Latency))
		}
		for i := range rep.hits {
			h = append(h, ms(rep.hits[i].Latency))
		}
		lat = append(lat, l...)
		p99s = append(p99s, quantile(l, 0.99))
		hitP99s = append(hitP99s, quantile(h, 0.99))
		solved += rep.wall
	}
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"certify_s":    {median(walls), "s"},
		"ee_w16_12_s":  {median(ees), "s"},
		"p50_ms":       {median(lat), "ms"},
		"p99_ms":       {median(p99s), "ms"},
		"solve_p50_ms": {median(lat), "ms"},
		"hit_p99_ms":   {median(hitP99s), "ms"},
		"sat_qps":      {ratio(float64(len(lat)), solved.Seconds()), "req/s"},
	}
}

// certify: closed loop, one request at a time, a fresh server per
// repetition, the paper's hardest exact certificates. Repetitions run
// until --seconds is spent (at least minReps); a traced run makes
// minReps untraced repetitions, one traced one and the per-layer pass.
func (r *run) certify() error {
	c := newClient(1, certifyTimeout)
	defer c.close()
	var reps []certifyRep
	var last time.Duration
	budget := time.Duration(r.seconds * float64(time.Second))
	for len(reps) < r.minReps || (!r.traced && time.Since(r.began)+last <= budget) {
		if time.Now().After(r.cutoff()) {
			break
		}
		began := time.Now()
		rep, err := r.certifyOnce(c, fmt.Sprintf("rep%d-s%d", len(reps), r.seed), nil)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
		last = time.Since(began)
	}
	r.e2e = certifyMetrics(reps)
	if !r.traced {
		return nil
	}

	r.rec = newRecorder()
	rep, err := r.certifyOnce(c, fmt.Sprintf("traced-s%d", r.seed), r.rec)
	if err != nil {
		return err
	}
	traced := []certifyRep{rep}
	r.overhead = diffMetrics(certifyMetrics(traced), r.e2e)
	var untracedOuts, tracedOuts []outcome
	var allocKB float64
	var gcs uint32
	for _, rep := range reps {
		untracedOuts = append(append(untracedOuts, rep.solves...), rep.hits...)
		allocKB += rep.allocKB
		gcs += rep.gcs
	}
	delta := counters{}
	var tracedHits []outcome
	for _, rep := range traced {
		tracedOuts = append(append(tracedOuts, rep.solves...), rep.hits...)
		tracedHits = append(tracedHits, rep.hits...)
		delta = addCounters(delta, rep.delta)
	}
	// A closed loop has no schedule to fall behind.
	r.layers["client.late_frac"] = metric{0, "fraction"}
	r.layers["client.max_lag_ms"] = metric{0, "ms"}
	r.layers["runtime.alloc_kb_per_req"] = metric{ratio(allocKB, float64(len(untracedOuts))), "KiB"}
	r.layers["runtime.gc_cycles"] = metric{float64(gcs), "count"}
	r.counterLayers(delta, len(tracedOuts))
	r.connWait(untracedOuts)
	return r.certifyLayers(tracedHits)
}

func addCounters(a, b counters) counters {
	for k, v := range b {
		a[k] += v
	}
	return a
}
