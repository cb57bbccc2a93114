package route

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/bitutil"
	"repro/internal/cut"
	"repro/internal/solve"
	"repro/internal/topology"
)

// simState is the reusable scratch of the flat routing engine. Paths are
// compiled into flat directed-edge-id sequences, per-edge FIFO queues are
// intrusive linked lists over a single qNext array, and the set of busy
// edges is a bitset iterated in id order — so one state, once warmed,
// runs any number of trials on the same butterfly without allocating.
type simState struct {
	b *topology.Butterfly

	// The directed-edge index and the shape it was built for. The shape
	// (inputs, wraparound), not the *Butterfly, keys it: every request
	// builds a fresh butterfly. A new state's zero shape matches none.
	ix      dirIndex
	ixShape shapeKey

	// Cut accounting, set per call by setCut.
	crossing []bool // per directed edge: endpoints on opposite sides
	capacity int
	haveCut  bool

	// Compiled paths: packet p follows pathEdges[pathStart[p]:pathStart[p+1]].
	pathStart []int32
	pathEdges []int32
	npaths    int
	prev      int // last node seen by hop, -1 at a path start

	// Per-packet state.
	pos   []int32 // index of the packet's current edge within its sequence
	qNext []int32 // next packet in the same FIFO queue

	// Per-directed-edge FIFO queues plus the busy-edge bitset.
	qHead, qTail []int32
	qLen         []int32
	active       []uint64
	moves        []int32 // per-step snapshot of busy edge ids, reused

	src  rand.Source64
	rng  *rand.Rand
	perm []int

	// Fault-injection state, set per call by setScenario/seedFaults. The
	// fault RNG is separate from the destination RNG, so enabling faults
	// never perturbs which destinations a seed draws — and the zero-value
	// scenario consumes no fault randomness at all.
	fault     FaultOptions
	sw        Switching
	haveDead  bool
	dead      []bool  // per directed edge: permanently failed this trial
	deadCount int     // dead entries set by the last seedFaults
	retry     []int32 // per packet: failed transmission attempts so far
	stamp     []int64 // per directed edge: clock of its last traversal
	clock     int64   // monotone step counter across runs (never reset)
	faultSrc  rand.Source64
	faultRng  *rand.Rand

	// dirty marks a state whose queues may be non-empty (a run panicked
	// mid-flight); such states are not returned to the pool.
	dirty bool
}

// shapeKey names a butterfly shape: equal keys mean identical graphs.
type shapeKey struct {
	inputs int
	wrap   bool
}

// bind points the state at a butterfly, rebuilding the index in place
// only when the shape changes, growing (never shrinking the capacity of)
// the per-edge and per-packet arrays, and clearing the queue state.
func (st *simState) bind(b *topology.Butterfly) {
	st.b = b
	if shape := (shapeKey{b.Inputs(), b.Wraparound()}); shape != st.ixShape {
		st.ix.build(b)
		st.ixShape = shape
	}
	e := st.ix.numDir()
	if cap(st.qHead) < e {
		st.qHead = make([]int32, e)
		st.qTail = make([]int32, e)
		st.qLen = make([]int32, e)
		st.crossing = make([]bool, e)
		st.dead = make([]bool, e)
		st.stamp = make([]int64, e)
		st.active = make([]uint64, (e+63)/64)
		st.moves = make([]int32, 0, e)
	}
	st.qHead = st.qHead[:e]
	st.qTail = st.qTail[:e]
	st.qLen = st.qLen[:e]
	st.crossing = st.crossing[:e]
	st.dead = st.dead[:e]
	st.stamp = st.stamp[:e]
	st.active = st.active[:(e+63)/64]
	for i := range st.qLen {
		st.qLen[i] = 0
	}
	for i := range st.active {
		st.active[i] = 0
	}
	maxP := b.N()
	if cap(st.pos) < maxP {
		st.pos = make([]int32, maxP)
		st.qNext = make([]int32, maxP)
		st.retry = make([]int32, maxP)
	}
	st.pos = st.pos[:maxP]
	st.qNext = st.qNext[:maxP]
	st.retry = st.retry[:maxP]
	if st.rng == nil {
		st.src = rand.NewSource(1).(rand.Source64)
		st.rng = rand.New(st.src)
	}
	// Reset to the healthy scenario; setScenario re-arms faults per call.
	st.fault = FaultOptions{}
	st.sw = StoreAndForward
	st.haveDead = false
	st.deadCount = 0
	st.dirty = false
}

// setScenario installs the fault model and switching discipline for the
// trials that follow. Callers must seed the fault plan per trial with
// seedFaults after compiling each trial's paths.
func (st *simState) setScenario(f FaultOptions, sw Switching) {
	if err := f.Validate(); err != nil {
		panic("route: " + err.Error())
	}
	st.fault = f
	st.sw = sw
}

// seedFaults re-seeds the fault RNG for one trial and samples that
// trial's dead-link plan (one Float64 per directed edge, in edge-id
// order — the same enumeration the reference engine uses). A disabled
// fault model consumes nothing.
func (st *simState) seedFaults(seed int64) {
	st.haveDead = false
	st.deadCount = 0
	if !st.fault.Enabled() {
		return
	}
	if st.faultRng == nil {
		st.faultSrc = rand.NewSource(1).(rand.Source64)
		st.faultRng = rand.New(st.faultSrc)
	}
	st.faultSrc.Seed(faultSeed(seed))
	if st.fault.DeadLinkProb > 0 {
		st.haveDead = true
		for e := range st.dead {
			d := st.faultRng.Float64() < st.fault.DeadLinkProb
			st.dead[e] = d
			if d {
				st.deadCount++
			}
		}
	}
}

// setCut installs the reference cut for §1.2 accounting (nil disables it).
func (st *simState) setCut(ref *cut.Cut) {
	if ref == nil {
		st.haveCut = false
		return
	}
	st.haveCut = true
	st.capacity = ref.Capacity()
	for v := 0; v < st.ix.nodes; v++ {
		inS := ref.InS(v)
		for e := st.ix.start[v]; e < st.ix.start[v+1]; e++ {
			st.crossing[e] = inS != ref.InS(int(st.ix.to[e]))
		}
	}
}

func (st *simState) resetPaths() {
	st.pathStart = append(st.pathStart[:0], 0)
	st.pathEdges = st.pathEdges[:0]
	st.npaths = 0
}

func (st *simState) beginPath() { st.prev = -1 }

// hop extends the current path to node, compressing zero-length legs
// (consecutive duplicate nodes) exactly like the reference engine.
func (st *simState) hop(node int) {
	if node == st.prev {
		return
	}
	if st.prev >= 0 {
		st.pathEdges = append(st.pathEdges, st.ix.edgeID(int32(st.prev), int32(node)))
	}
	st.prev = node
}

func (st *simState) endPath() {
	st.pathStart = append(st.pathStart, int32(len(st.pathEdges)))
	st.npaths++
}

// compileRandomDestinations draws one uniform destination per node of Bn
// (self-messages use no edges and are skipped) and compiles the three-leg
// up/across/down routes. The RNG consumption matches the reference engine
// draw for draw, so equal seeds give identical trials.
func (st *simState) compileRandomDestinations(seed int64) {
	if st.b.Wraparound() {
		panic("route: simulator targets Bn")
	}
	st.src.Seed(seed)
	st.resetPaths()
	n := st.b.N()
	for v := 0; v < n; v++ {
		dst := st.rng.Intn(n)
		if dst == v {
			continue
		}
		st.beginPath()
		st.threeLeg(v, dst)
		st.endPath()
	}
}

// compileRandomDestinationsWrapped is the Wn analogue, following the
// Theorem 4.3 three-leg shape.
func (st *simState) compileRandomDestinationsWrapped(seed int64) {
	if !st.b.Wraparound() {
		panic("route: wrapped simulator targets Wn")
	}
	st.src.Seed(seed)
	st.resetPaths()
	n := st.b.N()
	for v := 0; v < n; v++ {
		dst := st.rng.Intn(n)
		if dst == v {
			continue
		}
		st.beginPath()
		st.threeLeg(v, dst)
		st.endPath()
	}
}

// compilePermutation compiles the monotone Lemma 2.3 routes of an
// input→output permutation on Bn.
func (st *simState) compilePermutation(perm []int) error {
	if st.b.Wraparound() {
		panic("route: simulator targets Bn")
	}
	if err := checkPermutation(perm, st.b.Inputs()); err != nil {
		return err
	}
	st.resetPaths()
	for w, q := range perm {
		st.beginPath()
		st.monotone(w, q)
		st.endPath()
	}
	return nil
}

// compileRandomPermutation draws a uniform permutation with the same
// Fisher–Yates sequence as rand.Perm (so seeds reproduce the experiments'
// draws) into a reusable buffer, then compiles its monotone routes.
func (st *simState) compileRandomPermutation(seed int64) {
	if st.b.Wraparound() {
		panic("route: simulator targets Bn")
	}
	st.src.Seed(seed)
	n := st.b.Inputs()
	if cap(st.perm) < n {
		st.perm = make([]int, n)
	}
	p := st.perm[:n]
	for i := 0; i < n; i++ {
		j := st.rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	if err := st.compilePermutation(p); err != nil {
		panic(err) // the buffer is a valid permutation by construction
	}
}

// compileHotSpot draws one uniform hot node per trial and routes a packet
// from every other node of Bn to it — the adversarial all-to-one pattern
// that serializes on the hot node's in-edges regardless of bisection.
func (st *simState) compileHotSpot(seed int64) {
	if st.b.Wraparound() {
		panic("route: simulator targets Bn")
	}
	st.src.Seed(seed)
	st.resetPaths()
	n := st.b.N()
	hot := st.rng.Intn(n)
	for v := 0; v < n; v++ {
		if v == hot {
			continue
		}
		st.beginPath()
		st.threeLeg(v, hot)
		st.endPath()
	}
}

// compileBitReversal routes node ⟨w,l⟩ of Bn to ⟨reverse(w),l⟩ — the
// classic adversarial permutation for greedy column routing (every packet
// flips all differing bits, concentrating traffic mid-network). It is
// deterministic: seeds only vary the fault plan, not the traffic.
func (st *simState) compileBitReversal() {
	if st.b.Wraparound() {
		panic("route: simulator targets Bn")
	}
	st.resetPaths()
	b, d := st.b, st.b.Dim()
	for v := 0; v < b.N(); v++ {
		w, l := b.Column(v), b.Level(v)
		rw := bitutil.Reverse(w, d)
		if rw == w {
			continue // a fixed column maps to itself: no packet
		}
		st.beginPath()
		st.threeLeg(v, b.Node(rw, l))
		st.endPath()
	}
}

// compileKind compiles one trial of kind from seed. The topology has been
// validated by the caller (checkKindTopology).
func (st *simState) compileKind(kind TrialKind, seed int64) {
	switch kind {
	case RandomDestinations:
		st.compileRandomDestinations(seed)
	case WrappedRandomDestinations:
		st.compileRandomDestinationsWrapped(seed)
	case RandomPermutations:
		st.compileRandomPermutation(seed)
	case HotSpotDestinations:
		st.compileHotSpot(seed)
	case BitReversalDestinations:
		st.compileBitReversal()
	default:
		panic(fmt.Sprintf("route: unknown trial kind %d", int(kind)))
	}
}

// threeLeg walks the three-leg route: up the source column to level 0,
// across the (rotated, for Wn) monotone path, down the destination column.
// b.Node's level wraparound makes the same walk serve Bn and Wn (the
// Theorem 4.3 shape with start level 0).
func (st *simState) threeLeg(u, v int) {
	b, d := st.b, st.b.Dim()
	wu, iu := b.Column(u), b.Level(u)
	wv, iv := b.Column(v), b.Level(v)
	for l := iu; l >= 0; l-- {
		st.hop(b.Node(wu, l))
	}
	w := wu
	for i := 0; i < d; i++ {
		if bitutil.Bit(w, d, i+1) != bitutil.Bit(wv, d, i+1) {
			w = bitutil.FlipBit(w, d, i+1)
		}
		st.hop(b.Node(w, i+1))
	}
	for l := d - 1; l >= iv; l-- {
		st.hop(b.Node(wv, l))
	}
}

// monotone walks the unique level-increasing path from input w0 to output w1.
func (st *simState) monotone(w0, w1 int) {
	b, d := st.b, st.b.Dim()
	w := w0
	st.hop(b.Node(w, 0))
	for i := 0; i < d; i++ {
		if bitutil.Bit(w, d, i+1) != bitutil.Bit(w1, d, i+1) {
			w = bitutil.FlipBit(w, d, i+1)
		}
		st.hop(b.Node(w, i+1))
	}
}

// push appends packet pk to edge e's FIFO queue.
func (st *simState) push(e, pk int32) {
	if st.qLen[e] == 0 {
		st.qHead[e] = pk
		st.active[e>>6] |= 1 << uint(e&63)
	} else {
		st.qNext[st.qTail[e]] = pk
	}
	st.qTail[e] = pk
	st.qNext[pk] = -1
	st.qLen[e]++
}

// popHead removes and returns the head packet of edge e's FIFO queue,
// clearing the busy bit when the queue drains.
func (st *simState) popHead(e int32) int32 {
	pk := st.qHead[e]
	st.qHead[e] = st.qNext[pk]
	st.qLen[e]--
	if st.qLen[e] == 0 {
		st.active[e>>6] &^= 1 << uint(e&63)
	}
	return pk
}

// clearQueues empties every FIFO queue and the busy bitset, returning an
// exhausted (step-limited) state to a pool-safe condition.
func (st *simState) clearQueues() {
	for i := range st.qLen {
		st.qLen[i] = 0
	}
	for i := range st.active {
		st.active[i] = 0
	}
}

// run executes the synchronous store-and-forward model on the compiled
// paths until every packet arrives. Each step snapshots the busy edges in
// increasing id order, then forwards one packet per edge in that same
// order — the deterministic schedule the reference engine sorts for.
func (st *simState) run(maxSteps int) SimResult {
	res, _ := st.runMonitored(maxSteps, nil)
	return res
}

// stepPollStride is how many simulated steps pass between stop-flag
// polls in runMonitored: frequent enough that cancellation lands within
// a few thousand packet moves, sparse enough that the branch stays out
// of the per-step cost (the single-trial benchmark is alloc-free and
// runs within noise of the unmonitored engine).
const stepPollStride = 32

// runMonitored is run with cooperative cancellation: the monitor's stop
// flag is polled every stepPollStride simulated steps (a step forwards
// up to one packet per busy edge, so each poll is amortized over many
// thousands of packet moves). An interrupted trial returns ok=false and
// leaves the state dirty — its queues still hold packets — so putState
// drops it instead of pooling it.
func (st *simState) runMonitored(maxSteps int, mon *solve.Monitor) (res SimResult, ok bool) {
	res = SimResult{Packets: st.npaths, DeadLinks: st.deadCount}
	if st.haveCut {
		for p := 0; p < st.npaths; p++ {
			for e := st.pathStart[p]; e < st.pathStart[p+1]; e++ {
				if st.crossing[st.pathEdges[e]] {
					res.CutCrossings++
					break
				}
			}
		}
		if c := st.capacity; c > 0 {
			res.CongestionBound = (res.CutCrossings + c - 1) / c
		}
	}

	st.dirty = true
	drops := st.fault.DropProb > 0
	remaining := 0
	for p := 0; p < st.npaths; p++ {
		st.pos[p] = 0
		if drops {
			st.retry[p] = 0
		}
		first := st.pathStart[p]
		if first == st.pathStart[p+1] {
			res.Delivered++ // zero-edge route: already home
			continue
		}
		e := st.pathEdges[first]
		if st.haveDead && st.dead[e] {
			res.Dropped++ // injected straight into a dead link
			continue
		}
		st.push(e, int32(p))
		remaining++
	}
	pollIn := stepPollStride
	for remaining > 0 {
		pollIn--
		if pollIn <= 0 {
			pollIn = stepPollStride
			if mon.Stopped() {
				return res, false
			}
		}
		res.Steps++
		if res.Steps > maxSteps {
			// Non-convergence is a reportable outcome, not a crash: heavy
			// drop rates with unbounded retransmission legitimately exceed
			// any step limit, and the daemon must answer such requests with
			// an error, not a panic. The queues are cleared so the state
			// stays pool-safe.
			res.Steps = maxSteps
			res.Exhausted = true
			st.clearQueues()
			st.dirty = false
			return res, true
		}
		st.clock++
		moves := st.moves[:0]
		for wi, word := range st.active {
			base := int32(wi) << 6
			for word != 0 {
				e := base + int32(bits.TrailingZeros64(word))
				word &= word - 1
				if int(st.qLen[e]) > res.MaxQueue {
					res.MaxQueue = int(st.qLen[e])
				}
				moves = append(moves, e)
			}
		}
		st.moves = moves
		for _, e := range moves {
			pk := st.qHead[e]
			if drops && st.faultRng.Float64() < st.fault.DropProb {
				res.Retransmits++
				st.retry[pk]++
				if st.fault.MaxRetransmits > 0 && int(st.retry[pk]) >= st.fault.MaxRetransmits {
					st.popHead(e)
					remaining--
					res.Dropped++
				}
				continue
			}
			st.popHead(e)
			remaining--
			if st.sw == CutThrough {
				st.stamp[e] = st.clock
			}
			st.pos[pk]++
			next := st.pathStart[pk] + st.pos[pk]
			if next >= st.pathStart[pk+1] {
				res.Delivered++
				continue
			}
			ne := st.pathEdges[next]
			if st.haveDead && st.dead[ne] {
				res.Dropped++
				continue
			}
			if st.sw == CutThrough {
				var consumed bool
				ne, consumed = st.cutThrough(pk, ne, &res)
				if consumed {
					continue
				}
			}
			st.push(ne, pk)
			remaining++
		}
	}
	st.dirty = false
	return res, true
}

// cutThrough advances packet pk through consecutive idle edges (empty
// queue, not yet traversed this step) within the current step, starting
// from candidate edge ne — which the caller has already checked is alive.
// It returns the edge the packet stalls on (consumed=false → the caller
// enqueues it there) or consumed=true when the walk delivered or dropped
// the packet. Each hop of the walk is one transmission attempt and draws
// its own drop decision, in the same order the reference engine draws.
func (st *simState) cutThrough(pk, ne int32, res *SimResult) (int32, bool) {
	drops := st.fault.DropProb > 0
	for st.qLen[ne] == 0 && st.stamp[ne] != st.clock {
		if drops && st.faultRng.Float64() < st.fault.DropProb {
			res.Retransmits++
			st.retry[pk]++
			if st.fault.MaxRetransmits > 0 && int(st.retry[pk]) >= st.fault.MaxRetransmits {
				res.Dropped++
				return ne, true
			}
			return ne, false // stall here; retransmit from this queue next step
		}
		st.stamp[ne] = st.clock
		st.pos[pk]++
		next := st.pathStart[pk] + st.pos[pk]
		if next >= st.pathStart[pk+1] {
			res.Delivered++
			return ne, true
		}
		nxt := st.pathEdges[next]
		if st.haveDead && st.dead[nxt] {
			res.Dropped++
			return ne, true
		}
		ne = nxt
	}
	return ne, false
}

// defaultMaxSteps is the non-convergence guard limit: any correct
// synchronous schedule on N packets of ≤3·log n hops finishes far below it.
func defaultMaxSteps(b *topology.Butterfly) int { return 64 * b.N() }

// statePool recycles simulation states across calls and trials; a warmed
// state runs a trial with zero allocations.
var statePool sync.Pool

func getState(b *topology.Butterfly) *simState {
	st, _ := statePool.Get().(*simState)
	if st == nil {
		st = new(simState)
	}
	st.bind(b)
	return st
}

func putState(st *simState) {
	if !st.dirty {
		statePool.Put(st)
	}
}

// SimulateRandomDestinations routes one packet from every node of Bn to an
// independently chosen uniform random node, along three-leg up/across/down
// routes, under synchronous store-and-forward switching (one packet per
// directed edge per step, FIFO queues). The reference cut supplies the
// §1.2 accounting: the routing time is at least CutCrossings / C(S,S̄).
// It runs on the flat engine; the tests pin it result for result to the
// map-based reference engine kept in this package's test files.
func SimulateRandomDestinations(b *topology.Butterfly, ref *cut.Cut, seed int64) SimResult {
	st := getState(b)
	defer putState(st)
	st.setCut(ref)
	st.compileRandomDestinations(seed)
	return st.run(defaultMaxSteps(b))
}

// SimulateRandomDestinationsWrapped is the Wn analogue of
// SimulateRandomDestinations: routes follow the Theorem 4.3 three-leg shape
// (up the source column to level 0, the rotated monotone path into the
// destination column, then down to the destination).
func SimulateRandomDestinationsWrapped(w *topology.Butterfly, ref *cut.Cut, seed int64) SimResult {
	st := getState(w)
	defer putState(st)
	st.setCut(ref)
	st.compileRandomDestinationsWrapped(seed)
	return st.run(defaultMaxSteps(w))
}

// SimulatePermutation routes one packet from every input of Bn to output
// perm[input] along the monotone paths of Lemma 2.3.
func SimulatePermutation(b *topology.Butterfly, ref *cut.Cut, perm []int) (SimResult, error) {
	st := getState(b)
	defer putState(st)
	st.setCut(ref)
	if err := st.compilePermutation(perm); err != nil {
		return SimResult{}, err
	}
	return st.run(defaultMaxSteps(b)), nil
}

// checkKindTopology verifies that kind can run on b, surfacing the
// compile-time panics as a returned error for request-level validation.
func checkKindTopology(kind TrialKind, b *topology.Butterfly) error {
	switch kind {
	case RandomDestinations, RandomPermutations, HotSpotDestinations, BitReversalDestinations:
		if b.Wraparound() {
			return fmt.Errorf("route: %s targets Bn, got a wraparound butterfly", kind)
		}
	case WrappedRandomDestinations:
		if !b.Wraparound() {
			return fmt.Errorf("route: %s targets Wn, got an ordinary butterfly", kind)
		}
	default:
		return fmt.Errorf("route: unknown trial kind %d", int(kind))
	}
	return nil
}

// SimulateScenario runs one trial of kind on b under the given fault model
// and switching discipline on the flat engine. Seed drives both the
// traffic draw and (through a separate RNG stream) the fault plan; with
// the zero FaultOptions and StoreAndForward it is byte-identical to the
// healthy single-trial entry points. A trial that exceeds the step limit
// returns with Exhausted set — never a panic.
func SimulateScenario(b *topology.Butterfly, ref *cut.Cut, kind TrialKind, seed int64, f FaultOptions, sw Switching) (SimResult, error) {
	if err := checkKindTopology(kind, b); err != nil {
		return SimResult{}, err
	}
	if err := f.Validate(); err != nil {
		return SimResult{}, err
	}
	st := getState(b)
	defer putState(st)
	st.setCut(ref)
	st.setScenario(f, sw)
	st.compileKind(kind, seed)
	st.seedFaults(seed)
	return st.run(defaultMaxSteps(b)), nil
}
