package emulation

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/topology"
)

func TestSemanticFaithfulnessAcrossEmbeddings(t *testing.T) {
	// Every embedding in the repository must deliver exactly the guest's
	// communication pattern: the folded states after several steps agree
	// with the native guest run.
	b := topology.NewButterfly(8)
	w := topology.NewWrappedButterfly(8)
	c := topology.NewCCC(8)
	hc, _ := embed.ButterflyIntoHypercube(b)
	cases := map[string]*embed.Embedding{
		"Benes→Bn":     embed.BenesIntoButterfly(b),
		"Wn→CCC":       embed.WrappedIntoCCC(w, c),
		"Bn→hypercube": hc,
		"Bk→Bn":        embed.BkIntoBn(b, 1, 1),
		"Bn→MOS":       embed.ButterflyIntoMOS(b, 2, 2),
		"Knn→Bn":       embed.KnnIntoButterfly(b),
	}
	for name, e := range cases {
		for _, steps := range []int{1, 3} {
			if !SemanticallyFaithful(e, steps, 42) {
				t.Errorf("%s: emulation diverged from the guest after %d steps", name, steps)
			}
		}
	}
}

func TestSemanticCheckCatchesMiswiring(t *testing.T) {
	// Swap the residences of two guest nodes without rerouting: the
	// endpoint check must trip.
	b := topology.NewButterfly(8)
	e := embed.BenesIntoButterfly(b)
	bad := *e
	bad.NodeMap = append([]int{}, e.NodeMap...)
	bad.NodeMap[0], bad.NodeMap[1] = bad.NodeMap[1], bad.NodeMap[0]
	defer func() {
		if recover() == nil {
			t.Errorf("miswired embedding not caught")
		}
	}()
	RunEmulated(&bad, make([]int64, bad.Guest.N()), 1)
}

func TestSemanticCheckCatchesBrokenPath(t *testing.T) {
	b := topology.NewButterfly(8)
	e := embed.KnnIntoButterfly(b)
	bad := *e
	bad.Paths = append([][]int{}, e.Paths...)
	p := append([]int{}, e.Paths[0]...)
	if len(p) < 4 {
		t.Skip("path too short to corrupt meaningfully")
	}
	p[1], p[2] = p[2], p[1] // scramble interior hops
	bad.Paths[0] = p
	defer func() {
		if recover() == nil {
			t.Errorf("broken path not caught")
		}
	}()
	RunEmulated(&bad, make([]int64, bad.Guest.N()), 1)
}

func TestRunGuestDeterministic(t *testing.T) {
	g := topology.NewButterfly(4).Graph
	init := make([]int64, g.N())
	for i := range init {
		init[i] = int64(i)
	}
	a := RunGuest(g, init, 4)
	b := RunGuest(g, init, 4)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("nondeterministic guest run")
		}
	}
	// States actually evolve.
	same := true
	for v := range a {
		if a[v] != init[v] {
			same = false
		}
	}
	if same {
		t.Errorf("states did not change")
	}
}

// The semantic emulation check: a synchronous guest computation — each node
// repeatedly replaces its state with a fold over its own state and all
// neighbor states — is executed natively on the guest and again through the
// host via the embedding's node map and paths. Identical final states prove
// the embedding delivers exactly the guest's communication pattern (right
// endpoints, right multiplicity), which neither congestion nor dilation
// accounting alone can certify.

// stepFold is the per-step update: a node's next state folds its own state
// with the multiset of arriving neighbor states. Multiplication by primes
// keeps the fold sensitive to both multiplicity and which states arrive.
func stepFold(own int64, arrived []int64) int64 {
	next := own*31 + 7
	for _, a := range arrived {
		next = next*37 + a*17 + 1
	}
	return next
}

// RunGuest executes steps rounds of the reference computation directly on
// the guest graph. Arriving states are folded in a canonical order
// (ascending edge index), which both runners share.
func RunGuest(g *graph.Graph, init []int64, steps int) []int64 {
	state := append([]int64(nil), init...)
	for s := 0; s < steps; s++ {
		arrived := make([][]int64, g.N())
		for _, e := range g.Edges() {
			arrived[e.U] = append(arrived[e.U], state[e.V])
			arrived[e.V] = append(arrived[e.V], state[e.U])
		}
		next := make([]int64, g.N())
		for v := range next {
			next[v] = stepFold(state[v], arrived[v])
		}
		state = next
	}
	return state
}

// RunEmulated executes the same computation through the host: guest node
// v's state resides at host node NodeMap[v]; each guest step's messages
// walk their embedding paths hop by hop before the fold is applied. The
// walk asserts every hop is a host edge, so a corrupted embedding fails
// loudly rather than silently computing the right answer.
func RunEmulated(e *embed.Embedding, init []int64, steps int) []int64 {
	state := append([]int64(nil), init...)
	for s := 0; s < steps; s++ {
		arrived := make([][]int64, e.Guest.N())
		for ei, ge := range e.Guest.Edges() {
			path := e.Paths[ei]
			u, v := int(ge.U), int(ge.V)
			// The path must join exactly the residences of u and v
			// (either orientation); a miswired embedding fails here.
			first, last := path[0], path[len(path)-1]
			ru, rv := e.NodeMap[u], e.NodeMap[v]
			if !(first == ru && last == rv) && !(first == rv && last == ru) {
				panic("emulation: path does not join the edge's residences")
			}
			// Each endpoint receives the other's state, carried across
			// the validated hops.
			arrived[v] = append(arrived[v], walk(e, path, state[u]))
			arrived[u] = append(arrived[u], walk(e, reversed(path), state[v]))
		}
		next := make([]int64, e.Guest.N())
		for v := range next {
			next[v] = stepFold(state[v], arrived[v])
		}
		state = next
	}
	return state
}

// walk carries a payload along a host path, panicking on a non-edge hop.
func walk(e *embed.Embedding, path []int, payload int64) int64 {
	for i := 0; i+1 < len(path); i++ {
		if !e.Host.HasEdge(path[i], path[i+1]) {
			panic("emulation: embedding path uses a non-edge")
		}
	}
	return payload
}

func reversed(p []int) []int {
	out := make([]int, len(p))
	for i, v := range p {
		out[len(p)-1-i] = v
	}
	return out
}

// SemanticallyFaithful runs both executions and reports whether every guest
// node ends in the same state.
func SemanticallyFaithful(e *embed.Embedding, steps int, seed int64) bool {
	init := make([]int64, e.Guest.N())
	for v := range init {
		init[v] = seed + int64(v)*1000003
	}
	want := RunGuest(e.Guest, init, steps)
	got := RunEmulated(e, init, steps)
	for v := range want {
		if want[v] != got[v] {
			return false
		}
	}
	return true
}
