package route

// This file keeps the original map-based store-and-forward simulator as
// the test oracle. The flat engine in engine.go is the production path;
// the functions here let tests cross-check the two result for result and
// benchmarks measure the speedup.

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/construct"
	"repro/internal/cut"
	"repro/internal/topology"
)

// SimulateRandomDestinationsReference is the map-based reference
// implementation of SimulateRandomDestinations, kept for cross-checking
// and old-vs-new benchmarks.
func SimulateRandomDestinationsReference(b *topology.Butterfly, ref *cut.Cut, seed int64) SimResult {
	if b.Wraparound() {
		panic("route: simulator targets Bn")
	}
	rng := rand.New(rand.NewSource(seed))
	n := b.N()
	paths := make([][]int, 0, n)
	for v := 0; v < n; v++ {
		dst := rng.Intn(n)
		if dst == v {
			continue // a self-message uses no edges
		}
		paths = append(paths, threeLegPath(b, v, dst))
	}
	return simulateReference(b, ref, paths)
}

// compressPath removes consecutive duplicate nodes (legs of length 0).
func compressPath(p []int) []int {
	out := p[:1]
	for _, v := range p[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// SimulatePermutationReference is the map-based reference implementation
// of SimulatePermutation.
func SimulatePermutationReference(b *topology.Butterfly, ref *cut.Cut, perm []int) (SimResult, error) {
	if b.Wraparound() {
		panic("route: simulator targets Bn")
	}
	if err := checkPermutation(perm, b.Inputs()); err != nil {
		return SimResult{}, err
	}
	paths := make([][]int, b.Inputs())
	for w := range paths {
		paths[w] = b.MonotonePath(w, perm[w])
	}
	return simulateReference(b, ref, paths), nil
}

// threeLegPath routes from u up its column to level 0, across the monotone
// path, and up the destination column from level log n to the destination.
func threeLegPath(b *topology.Butterfly, u, v int) []int {
	wu, iu := b.Column(u), b.Level(u)
	wv, iv := b.Column(v), b.Level(v)
	path := make([]int, 0, iu+b.Dim()+(b.Dim()-iv)+1)
	for l := iu; l >= 0; l-- {
		path = append(path, b.Node(wu, l))
	}
	mono := b.MonotonePath(wu, wv)
	path = append(path, mono[1:]...)
	for l := b.Dim() - 1; l >= iv; l-- {
		path = append(path, b.Node(wv, l))
	}
	return path
}

// dedge is the reference engine's directed-edge key: an ordered node
// pair. Lexicographic (u,v) order over these keys is exactly the edge-id
// order of the flat engine's dirIndex.
type dedge struct{ u, v int32 }

// popQueue removes the head of key's queue, deleting drained queues so
// map emptiness keeps meaning "edge idle".
func popQueue(queues map[dedge][]int32, key dedge) {
	q := queues[key]
	queues[key] = q[1:]
	if len(q) == 1 {
		delete(queues, key)
	}
}

// simulateReference runs the synchronous switch model until every packet
// arrives, with per-edge queues keyed on a node-pair map and the busy
// edges re-sorted every step. It is the semantic specification the flat
// engine is cross-checked against.
func simulateReference(b *topology.Butterfly, ref *cut.Cut, paths [][]int) SimResult {
	return simulateReferenceScenario(b, ref, paths, 0, FaultOptions{}, StoreAndForward)
}

// simulateReferenceScenario is simulateReference with the full fault
// model: lossy links with bounded retransmission, per-trial dead links,
// and cut-through switching. It consumes the fault RNG in exactly the
// order the flat engine does — dead links first in (u,v) lex order, then
// one draw per transmission attempt in sorted move order — so lossy
// cross-checks agree draw for draw.
func simulateReferenceScenario(b *topology.Butterfly, ref *cut.Cut, paths [][]int, seed int64, f FaultOptions, sw Switching) SimResult {
	res := SimResult{Packets: len(paths)}
	if ref != nil {
		for _, p := range paths {
			for i := 0; i+1 < len(p); i++ {
				if ref.InS(p[i]) != ref.InS(p[i+1]) {
					res.CutCrossings++
					break
				}
			}
		}
		if capacity := ref.Capacity(); capacity > 0 {
			res.CongestionBound = (res.CutCrossings + capacity - 1) / capacity
		}
	}

	var faultRng *rand.Rand
	dead := map[dedge]bool{}
	if f.Enabled() {
		faultRng = rand.New(rand.NewSource(faultSeed(seed)))
		if f.DeadLinkProb > 0 {
			// Enumerate distinct directed edges in (u,v) lex order — the
			// same enumeration dirIndex.build assigns ids in — drawing one
			// decision per edge, so both engines consume identical streams.
			g := b.Graph
			nbr := make([]int32, 0, 8)
			for u := 0; u < g.N(); u++ {
				nbr = append(nbr[:0], g.Neighbors(u)...)
				sort.Slice(nbr, func(i, j int) bool { return nbr[i] < nbr[j] })
				for i, v := range nbr {
					if i > 0 && v == nbr[i-1] {
						continue // parallel edge: one id per node pair
					}
					if faultRng.Float64() < f.DeadLinkProb {
						dead[dedge{int32(u), v}] = true
						res.DeadLinks++
					}
				}
			}
		}
	}
	drops := f.DropProb > 0

	queues := make(map[dedge][]int32)
	pos := make([]int, len(paths))   // index into each path
	retry := make([]int, len(paths)) // failed attempts per packet
	stamp := make(map[dedge]int)     // step of an edge's last traversal
	remaining := 0
	// edgeAt returns the edge packet pk is about to traverse, or ok=false
	// when the packet is at its destination.
	edgeAt := func(pk int32) (dedge, bool) {
		p := paths[pk]
		i := pos[pk]
		if i+1 < len(p) {
			return dedge{int32(p[i]), int32(p[i+1])}, true
		}
		return dedge{}, false
	}
	for pk := range paths {
		key, ok := edgeAt(int32(pk))
		if !ok {
			res.Delivered++ // zero-edge route: already home
			continue
		}
		if dead[key] {
			res.Dropped++ // injected straight into a dead link
			continue
		}
		queues[key] = append(queues[key], int32(pk))
		remaining++
	}

	maxSteps := defaultMaxSteps(b)
	for step := 0; remaining > 0; {
		step++
		res.Steps = step
		if step > maxSteps {
			res.Steps = maxSteps
			res.Exhausted = true
			return res
		}
		type move struct {
			pk  int32
			key dedge
		}
		var moves []move
		for key, q := range queues {
			if len(q) == 0 {
				continue
			}
			if len(q) > res.MaxQueue {
				res.MaxQueue = len(q)
			}
			moves = append(moves, move{q[0], key})
		}
		// Maps iterate in random order; apply moves in a fixed order so
		// downstream FIFO queues fill deterministically.
		sort.Slice(moves, func(i, j int) bool {
			if moves[i].key.u != moves[j].key.u {
				return moves[i].key.u < moves[j].key.u
			}
			return moves[i].key.v < moves[j].key.v
		})
		for _, mv := range moves {
			if drops && faultRng.Float64() < f.DropProb {
				res.Retransmits++
				retry[mv.pk]++
				if f.MaxRetransmits > 0 && retry[mv.pk] >= f.MaxRetransmits {
					popQueue(queues, mv.key)
					remaining--
					res.Dropped++
				}
				continue
			}
			popQueue(queues, mv.key)
			remaining--
			if sw == CutThrough {
				stamp[mv.key] = step
			}
			pos[mv.pk]++
			key, more := edgeAt(mv.pk)
			if !more {
				res.Delivered++
				continue
			}
			if dead[key] {
				res.Dropped++
				continue
			}
			if sw == CutThrough {
				consumed := false
				for len(queues[key]) == 0 && stamp[key] != step {
					if drops && faultRng.Float64() < f.DropProb {
						res.Retransmits++
						retry[mv.pk]++
						if f.MaxRetransmits > 0 && retry[mv.pk] >= f.MaxRetransmits {
							res.Dropped++
							consumed = true
						}
						break // stall (or die) on this edge
					}
					stamp[key] = step
					pos[mv.pk]++
					next, ok := edgeAt(mv.pk)
					if !ok {
						res.Delivered++
						consumed = true
						break
					}
					if dead[next] {
						res.Dropped++
						consumed = true
						break
					}
					key = next
				}
				if consumed {
					continue
				}
			}
			queues[key] = append(queues[key], mv.pk)
			remaining++
		}
	}
	return res
}

// referencePaths compiles one trial's routes of kind on the reference
// slice-of-nodes representation, consuming the destination RNG in the
// same order as the flat engine's compileKind — equal seeds give the
// same traffic in both engines.
func referencePaths(b *topology.Butterfly, kind TrialKind, seed int64) [][]int {
	switch kind {
	case RandomDestinations:
		rng := rand.New(rand.NewSource(seed))
		n := b.N()
		paths := make([][]int, 0, n)
		for v := 0; v < n; v++ {
			dst := rng.Intn(n)
			if dst == v {
				continue
			}
			paths = append(paths, threeLegPath(b, v, dst))
		}
		return paths
	case RandomPermutations:
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(b.Inputs())
		paths := make([][]int, len(perm))
		for w := range paths {
			paths[w] = b.MonotonePath(w, perm[w])
		}
		return paths
	case HotSpotDestinations:
		rng := rand.New(rand.NewSource(seed))
		n := b.N()
		hot := rng.Intn(n)
		paths := make([][]int, 0, n-1)
		for v := 0; v < n; v++ {
			if v == hot {
				continue
			}
			paths = append(paths, threeLegPath(b, v, hot))
		}
		return paths
	case BitReversalDestinations:
		d := b.Dim()
		paths := make([][]int, 0, b.N())
		for v := 0; v < b.N(); v++ {
			w, l := b.Column(v), b.Level(v)
			rw := bitutil.Reverse(w, d)
			if rw == w {
				continue // a fixed column maps to itself: no packet
			}
			paths = append(paths, threeLegPath(b, v, b.Node(rw, l)))
		}
		return paths
	}
	panic("route: unknown trial kind")
}

// SimulateScenarioReference is the map-based oracle for SimulateScenario:
// same traffic kinds, same fault model, same switching disciplines, same
// RNG streams — field-for-field equal results on every seed.
func SimulateScenarioReference(b *topology.Butterfly, ref *cut.Cut, kind TrialKind, seed int64, f FaultOptions, sw Switching) (SimResult, error) {
	if err := checkTrial(kind, b); err != nil {
		return SimResult{}, err
	}
	if err := f.Validate(); err != nil {
		return SimResult{}, err
	}
	return simulateReferenceScenario(b, ref, referencePaths(b, kind, seed), seed, f, sw), nil
}

// BenchmarkRoutingSingleTrial{Map,Flat} measure one B7 random-destination
// trial on the seed tree's map-based engine vs the flat directed-edge-CSR
// engine (the acceptance target is ≥5× with ~zero steady-state allocs).
func BenchmarkRoutingSingleTrialMap(b *testing.B) {
	bt, ref := benchB7(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := SimulateRandomDestinationsReference(bt, ref, int64(i))
		if r.Steps < r.CongestionBound {
			b.Fatalf("steps %d below bound %d", r.Steps, r.CongestionBound)
		}
	}
}

func BenchmarkRoutingSingleTrialFlat(b *testing.B) {
	bt, ref := benchB7(b)
	SimulateRandomDestinations(bt, ref, 0) // warm the state pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := SimulateRandomDestinations(bt, ref, int64(i))
		if r.Steps < r.CongestionBound {
			b.Fatalf("steps %d below bound %d", r.Steps, r.CongestionBound)
		}
	}
}

// benchB7 returns B7 (128 inputs) with its constructed minimum bisection.
func benchB7(b *testing.B) (*topology.Butterfly, *cut.Cut) {
	b.Helper()
	p, err := construct.BestPlan(128)
	if err != nil {
		b.Fatalf("BestPlan(128): %v", err)
	}
	bt := topology.NewButterfly(128)
	return bt, p.Build(bt)
}
