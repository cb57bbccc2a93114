package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/cut"
	"repro/internal/graph"
	"repro/internal/heuristic"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/topology"
)

// counterLayers turns the traced pass's registry deltas into per-layer
// metrics; requests is the pass's request count.
func (r *run) counterLayers(d counters, requests int) {
	n := float64(requests)
	count := func(name string, v int64) { r.layers[name] = metric{float64(v), "count"} }
	r.layers["serve.cache_hit_ratio"] = metric{ratio(float64(d["serve.cache_hits"]), n), "fraction"}
	r.layers["serve.store_hit_ratio"] = metric{ratio(float64(d["store.hits"]), n), "fraction"}
	count("serve.solves", d["serve.solves"])
	count("serve.coalesced", d["serve.coalesced"])
	count("serve.spills", d["serve.cache_spills"])
	count("serve.rejected", d["serve.rejected_429"]+d["serve.rejected_503"])
	count("store.read_errors", d["store.read_errors"])
	count("exact.explored", d["solve.nodes_explored"])
	count("exact.cancelled", d["solve.monitors_cancelled"])
	explored, pruned := float64(d["solve.nodes_explored"]), float64(d["solve.nodes_pruned"])
	r.layers["exact.pruned_frac"] = metric{ratio(pruned, explored+pruned), "fraction"}
	count("heuristic.starts", d["heuristic.bisect_starts"])
	count("construct.words", d["construct.words_evaluated"])
	r.layers["graph.arena_bytes"] = metric{float64(d["graph.arena_bytes"]), "bytes"}
	count("route.trials", d["route.trials_completed"])
	count("route.discarded", d["route.trials_discarded"])
}

// connWait reports the p99 wait from a request's due instant until the
// client held a connection: the head-of-line share of its latency.
func (r *run) connWait(outs []outcome) {
	var w []float64
	for i := range outs {
		if outs[i].Err == nil {
			w = append(w, ms(outs[i].ConnWait))
		}
	}
	r.layers["client.conn_wait_p99_ms"] = metric{quantile(w, 0.99), "ms"}
}

// replayed is one request sent through ServeHTTP in-process.
type replayed struct {
	took time.Duration
	out  outcome
}

// replayPhase sends seq through d's handler in-process, in order, with
// one serve.handler span each.
func (r *run) replayPhase(d *daemon, seq []query, tag string, book *bodyBook) []replayed {
	id, end := r.rec.begin(0, "phase.replay")
	defer end()
	h := d.srv.Handler()
	out := make([]replayed, len(seq))
	for i, q := range seq {
		reqID := fmt.Sprintf("%s-s%d-%d", tag, r.seed, i)
		began := time.Now()
		took, src, body, code := replay(h, q, reqID)
		r.rec.add(id, "serve.handler", reqID, src, began, began.Add(took))
		out[i] = replayed{took, outcome{Q: q, ReqID: reqID, Status: code, Source: src, Body: body}}
		book.note(&out[i].out)
	}
	return out
}

func replayOutcomes(rs []replayed) []outcome {
	outs := make([]outcome, len(rs))
	for i := range rs {
		outs[i] = rs[i].out
	}
	return outs
}

// serveLayers is the traced run's per-layer pass for serve-warm and
// serve-mixed: an in-process replay of the traced sequence on a fresh
// server, direct calls into the layers for every solved key, and direct
// store reads and writes of the run's bodies.
func (r *run) serveLayers(w serveWorkload, seq []query, tp phase) error {
	traced := tp.outs
	d, err := w.fresh("replay")
	if err != nil {
		return err
	}
	rs := r.replayPhase(d, seq, "replay", w.book())
	if err := d.stop(); err != nil {
		r.fail("stop", err)
	}
	r.settle("replay", replayOutcomes(rs), w.check)

	var hitUS, storeUS, transportUS []float64
	for i := range rs {
		switch rs[i].out.Source {
		case "hit":
			hitUS = append(hitUS, us(rs[i].took))
		case "store-hit":
			storeUS = append(storeUS, us(rs[i].took))
		}
		if t := &traced[i]; t.Err == nil && t.hit() && t.Source == rs[i].out.Source {
			transportUS = append(transportUS, us(t.End.Sub(t.Start))-us(rs[i].took))
		}
	}
	r.layers["serve.hit_us"] = metric{median(hitUS), "us"}
	r.layers["serve.store_hit_us"] = metric{median(storeUS), "us"}
	r.layers["serve.transport_us"] = metric{median(transportUS), "us"}

	// The solved key set: the replay's misses, or, when the run solves
	// nothing (serve-warm), set-up's catalogue replayed on a server with
	// no store.
	misses := solvedOnce(rs)
	if len(misses) == 0 && len(w.setupKeys) > 0 {
		plain, err := startDaemon(serve.Config{CacheEntries: 4 * len(w.setupKeys)}, "")
		if err != nil {
			return err
		}
		again := r.replayPhase(plain, w.setupKeys, "solve-replay", newBook(nil))
		if err := plain.stop(); err != nil {
			r.fail("stop", err)
		}
		r.settle("solve replay", replayOutcomes(again), nil)
		misses = solvedOnce(again)
	}
	stored := storeHitBodies(tp)
	return r.directLayers(misses, stored)
}

// solvedOnce keeps the first miss per key: the requests the server
// answered with a fresh solve.
func solvedOnce(rs []replayed) []replayed {
	seen := make(map[string]bool)
	var out []replayed
	for _, x := range rs {
		if x.out.Source == "miss" && x.out.Status == 200 && !seen[x.out.Q.path()] {
			seen[x.out.Q.path()] = true
			out = append(out, x)
		}
	}
	return out
}

// storeHitBodies are the distinct keys a pass read from the store, with
// their bodies.
func storeHitBodies(p phase) map[string][]byte {
	m := make(map[string][]byte)
	for i := range p.outs {
		if o := &p.outs[i]; o.Source == "store-hit" && o.Err == nil {
			m[o.Q.path()] = p.book.body(o.Q.path())
		}
	}
	return m
}

// certifyLayers is certify's per-layer pass: the five certificates
// replayed in-process on a fresh server, each asked a second time as a
// cache hit, then the direct layer calls. hits are the traced passes'
// cache-hit round trips, for the transport estimate.
func (r *run) certifyLayers(hits []outcome) error {
	d, err := startDaemon(serve.Config{}, "")
	if err != nil {
		return err
	}
	var qs []query
	for _, ck := range r.certs {
		qs = append(qs, ck.Q)
	}
	rs := r.replayPhase(d, append(qs, qs...), "replay", newBook(nil))
	if err := d.stop(); err != nil {
		r.fail("stop", err)
	}
	r.settle("replay", replayOutcomes(rs), nil)
	var hitUS, rtUS []float64
	for _, x := range rs[len(qs):] {
		if x.out.Source != "hit" {
			r.fail("replay "+x.out.ReqID, fmt.Errorf("X-Cache %q, want hit", x.out.Source))
		}
		hitUS = append(hitUS, us(x.took))
	}
	for i := range hits {
		if hits[i].Err == nil {
			rtUS = append(rtUS, us(hits[i].End.Sub(hits[i].Start)))
		}
	}
	// certify has no store: store_hit_us stays 0.
	r.layers["serve.hit_us"] = metric{median(hitUS), "us"}
	r.layers["serve.store_hit_us"] = metric{0, "us"}
	r.layers["serve.transport_us"] = metric{median(rtUS) - median(hitUS), "us"}
	return r.directLayers(solvedOnce(rs), nil)
}

// directLayers calls each layer's public entry point with the solved
// keys' parameters, outside the server, and times it; then writes the
// solved bodies into a scratch store and reads the store-hit bodies
// back. It reports the per-layer timing metrics, the solve overhead and
// the span summary.
func (r *run) directLayers(solved []replayed, stored map[string][]byte) error {
	id, end := r.rec.begin(0, "phase.layers")
	var bis, exp, rt, heur, plan, virt, build, sim []float64
	var exactSearch, simTime time.Duration
	var packets int64
	var overheadMS []float64
	ctx := context.Background()
	call := func(name, note string, f func()) time.Duration { return r.rec.time(id, name, note, f) }
	for _, x := range solved {
		q := x.out.Q
		note := q.path()
		var coreTime time.Duration
		switch q.Endpoint {
		case "bisection":
			budget := core.BisectionBudget{ExactNodes: q.ExactNodes, Ctx: ctx}
			coreTime = call("core.bisection", note, func() {
				switch q.Network {
				case "bn":
					if _, err := core.ButterflyBisection(q.N, budget); err != nil {
						r.fail("core.ButterflyBisection "+note, err)
					}
				case "wn":
					core.WrappedBisection(q.N, budget)
				case "ccc":
					core.CCCBisection(q.N, budget)
				}
			})
			bis = append(bis, ms(coreTime))
			var g *graph.Graph
			switch q.Network {
			case "bn":
				levels := 1
				for x := q.N; x > 1; x >>= 1 {
					levels++
				}
				if q.N*levels <= 1<<22 {
					build = append(build, ms(call("graph.build", note, func() { g = topology.NewButterfly(q.N).Graph })))
				}
				if q.N >= 4 {
					var p *construct.Plan
					plan = append(plan, ms(call("construct.plan", note, func() { p, _ = construct.BestPlan(q.N) })))
					if p != nil {
						virt = append(virt, ms(call("construct.virtual", note, func() {
							if _, err := p.VirtualBisectionCapacity(ctx, 0); err != nil {
								r.fail("construct.VirtualBisectionCapacity "+note, err)
							}
						})))
					}
				}
			case "wn":
				build = append(build, ms(call("graph.build", note, func() { g = topology.NewWrappedButterfly(q.N).Graph })))
			case "ccc":
				build = append(build, ms(call("graph.build", note, func() { g = topology.NewCCC(q.N).Graph })))
			}
			if g != nil && g.N() <= 16384 {
				heur = append(heur, ms(call("heuristic.bisect", note, func() {
					heuristic.BisectParallel(g, heuristic.BisectOptions{Starts: 6, Seed: 1, Ctx: ctx})
				})))
			}
		case "expansion":
			kind, err := core.ParseExpansionKind(q.Kind)
			if err != nil {
				r.fail(note, err)
				continue
			}
			var dims []int
			for d := 1; d <= core.MaxWitnessDim(kind, q.N) && d <= 4; d++ {
				dims = append(dims, d)
			}
			opts := core.ExpansionTableOptions{ExactNodes: q.ExactNodes, KMax: q.KMax, Ctx: ctx}
			coreTime = call("exact.expansion_table", note, func() { core.ExpansionTable(kind, q.N, dims, opts) })
			opts.ExactNodes = 0
			witness := call("core.expansion_witness", note, func() { core.ExpansionTable(kind, q.N, dims, opts) })
			exp = append(exp, ms(coreTime))
			if coreTime > witness {
				exactSearch += coreTime - witness
			}
			wrapped := kind == core.WnEdge || kind == core.WnNode
			build = append(build, ms(call("graph.build", note, func() {
				if wrapped {
					topology.NewWrappedButterfly(q.N)
				} else {
					topology.NewButterfly(q.N)
				}
			})))
		case "routing":
			kind, err := route.ParseTrialKind(q.Pattern)
			if err != nil {
				r.fail(note, err)
				continue
			}
			drops := q.Drops
			if len(drops) == 0 {
				drops = []float64{0}
			}
			coreTime = call("core.routing", note, func() {
				core.RoutingDegradation(q.N, q.Seed, kind, drops, core.RoutingOptions{
					Trials: q.Trials, Ctx: ctx, Fault: route.FaultOptions{MaxRetransmits: q.Retransmits},
				})
			})
			rt = append(rt, ms(coreTime))
			var b *topology.Butterfly
			build = append(build, ms(call("graph.build", note, func() { b = topology.NewButterfly(q.N) })))
			var ref *cut.Cut
			plan = append(plan, ms(call("construct.plan", note, func() {
				ref = construct.ColumnBisection(b)
				if p, err := construct.BestPlan(q.N); err == nil {
					ref = p.Build(b)
				}
			})))
			var keyTime time.Duration
			for _, p := range drops {
				var st route.TrialStats
				keyTime += call("route.simulate", note, func() {
					st = route.SimulateMany(b, ref, kind, route.ManyOptions{
						Trials: q.Trials, Seed: q.Seed, TightFactor: 4, Ctx: ctx,
						Fault: route.FaultOptions{DropProb: p, MaxRetransmits: q.Retransmits},
					})
				})
				packets += st.TotalPackets
			}
			simTime += keyTime
			sim = append(sim, ms(keyTime))
		}
		overheadMS = append(overheadMS, ms(x.took)-ms(coreTime))
	}
	r.layers["core.bisection_ms"] = metric{median(bis), "ms"}
	r.layers["core.expansion_ms"] = metric{median(exp), "ms"}
	r.layers["core.routing_ms"] = metric{median(rt), "ms"}
	r.layers["exact.search_ms"] = metric{ms(exactSearch), "ms"}
	r.layers["heuristic.bisect_ms"] = metric{median(heur), "ms"}
	r.layers["construct.plan_ms"] = metric{median(plan), "ms"}
	r.layers["construct.virtual_ms"] = metric{median(virt), "ms"}
	r.layers["graph.build_ms"] = metric{median(build), "ms"}
	r.layers["route.simulate_ms"] = metric{median(sim), "ms"}
	r.layers["route.packets_per_s"] = metric{ratio(float64(packets), simTime.Seconds()), "1/s"}
	r.layers["serve.solve_overhead_ms"] = metric{median(overheadMS), "ms"}

	err := r.storeLayers(id, solved, stored)
	end()
	if err != nil {
		return err
	}
	return r.writeSpans()
}

// storeLayers writes the solved bodies into a scratch store (the bodies
// the LRU spills) and reads the traced pass's store-hit bodies back.
func (r *run) storeLayers(parent int64, solved []replayed, stored map[string][]byte) error {
	dir, err := tempDir(r.tmp, "scratch-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	var putUS, getUS []float64
	for _, x := range solved {
		key, body := x.out.Q.path(), x.out.Body
		putUS = append(putUS, us(r.rec.time(parent, "store.put", key, func() {
			if err := st.Put(key, body); err != nil {
				r.fail("store.Put", err)
			}
		})))
	}
	if len(stored) == 0 {
		stored = make(map[string][]byte)
		for _, x := range solved {
			stored[x.out.Q.path()] = x.out.Body
		}
	}
	// The store-hit bodies go in last (untimed), so each key reads back
	// the body the run served from the store.
	for key, body := range stored {
		if err := st.Put(key, body); err != nil {
			r.fail("store.Put", err)
		}
	}
	for key, body := range stored {
		var got []byte
		var ok bool
		var gerr error
		getUS = append(getUS, us(r.rec.time(parent, "store.get", key, func() { got, ok, gerr = st.Get(key) })))
		if gerr != nil || !ok || !bytes.Equal(got, body) {
			r.fail("store.Get "+key, fmt.Errorf("found %v, err %v, body match %v", ok, gerr, bytes.Equal(got, body)))
		}
	}
	r.layers["store.put_us"] = metric{median(putUS), "us"}
	r.layers["store.get_us"] = metric{median(getUS), "us"}
	return nil
}

// writeSpans writes the traced run's spans as JSONL and prints the
// per-layer self time, share of wall time and span counts.
func (r *run) writeSpans() error {
	spans := r.rec.snapshot()
	wall := time.Since(r.rec.t0)
	path := r.spansPath()
	if err := writeJSONL(path, spans); err != nil {
		return err
	}
	fmt.Printf("traced run: %d spans written to %s over %.3f s\n", len(spans), path, wall.Seconds())
	printLayerSummary(os.Stdout, layerSummary(spans, wall))
	return nil
}
