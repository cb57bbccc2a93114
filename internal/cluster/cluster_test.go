package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cut"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/topology"
)

// testInstance is the distributed-search acceptance case: EE(W16, 12),
// root-forced.
func testInstance() (*graph.Graph, string, int) {
	return topology.NewWrappedButterfly(16).Graph, GraphSpec(true, 16), 12
}

// simCluster wires nPeers worker nodes and one coordinator onto a fresh
// SimNet and returns both.
func simCluster(t *testing.T, sim *SimNet, nPeers int, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	for i := 0; i < nPeers; i++ {
		addr := fmt.Sprintf("peer%d:7000", i)
		cfg.Peers = append(cfg.Peers, addr)
		sim.Register(addr, NewNode(addr, nil, sim, 0).Handle)
	}
	cfg.Self = "coord:7000"
	cfg.Transport = sim
	c := NewCoordinator(cfg)
	sim.Register(cfg.Self, c.Handle)
	return c
}

// TestDistributedSearchMatchesSingleNode is the acceptance case: the same
// exact expansion search, run once in-process and once sharded over three
// simulated peers, must certify the identical optimum — equal value, and
// a witness the graph itself validates.
func TestDistributedSearchMatchesSingleNode(t *testing.T) {
	g, gspec, k := testInstance()
	ref := exact.SolveEdgeExpansion(context.Background(), g, k, exact.SolveOptions{Containing: true, Root: 0})
	wantSet, want := ref.Set, ref.Value
	if len(wantSet) != k {
		t.Fatalf("single-node reference returned a %d-set, want %d", len(wantSet), k)
	}

	c := simCluster(t, NewSimNet(1, 0), 3, CoordinatorConfig{})
	spec := exact.ExpansionShardSpec{K: k, Edge: true, Root: 0}
	res, err := c.SearchExpansion(context.Background(), g, gspec, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want {
		t.Fatalf("distributed EE = %d, single-node = %d", res.Value, want)
	}
	if len(res.Witness) != k {
		t.Fatalf("witness has %d nodes, want %d", len(res.Witness), k)
	}
	if got := cut.EdgeBoundary(g, res.Witness); got != want {
		t.Fatalf("witness achieves boundary %d, claimed optimum %d", got, want)
	}
	if res.Stats.Shards <= 1 || res.Stats.Batches <= 1 {
		t.Fatalf("search did not actually shard: %+v", res.Stats)
	}
	doneBatches := 0
	for _, n := range res.Stats.PerPeer {
		doneBatches += n
	}
	if doneBatches != res.Stats.Batches {
		t.Fatalf("per-peer batch counts sum to %d, want %d", doneBatches, res.Stats.Batches)
	}
	if len(res.Stats.Dead) != 0 || res.Stats.Stolen != 0 {
		t.Fatalf("clean network reported failures: %+v", res.Stats)
	}
	if res.Stats.Explored == 0 {
		t.Fatal("no nodes explored")
	}
}

// TestDistributedSearchLossyWithDeadPeer is the degraded acceptance case:
// 15% message loss in both directions plus one peer dead the whole run.
// The dead peer's batches must be stolen by the survivors, the peer must
// be declared dead, and the solve must still certify the exact optimum.
func TestDistributedSearchLossyWithDeadPeer(t *testing.T) {
	g, gspec, k := testInstance()
	want := exact.SolveEdgeExpansion(context.Background(), g, k, exact.SolveOptions{Containing: true, Root: 0}).Value

	sim := NewSimNet(42, 0.15)
	// Generous retry budget: with seeded 15% loss a *live* peer can lose
	// several consecutive coin flips; only the truly dead peer should
	// plausibly exhaust it (every call refused instantly).
	c := simCluster(t, sim, 3, CoordinatorConfig{Retries: 25, CallTimeout: 2 * time.Minute})
	dead := c.cfg.Peers[1]
	sim.SetDown(dead, true)

	spec := exact.ExpansionShardSpec{K: k, Edge: true, Root: 0}
	res, err := c.SearchExpansion(context.Background(), g, gspec, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want {
		t.Fatalf("lossy distributed EE = %d, single-node = %d", res.Value, want)
	}
	if got := cut.EdgeBoundary(g, res.Witness); got != want {
		t.Fatalf("witness achieves boundary %d, claimed optimum %d", got, want)
	}
	if res.Stats.Stolen == 0 {
		t.Fatalf("dead peer's batches were never stolen: %+v", res.Stats)
	}
	foundDead := false
	for _, d := range res.Stats.Dead {
		if d == dead {
			foundDead = true
		}
	}
	if !foundDead {
		t.Fatalf("peer %s was down throughout but not declared dead: %+v", dead, res.Stats)
	}
	if n := res.Stats.PerPeer[dead]; n != 0 {
		t.Fatalf("dead peer credited with %d completed batches", n)
	}
}

// TestNodeOfferMonotonicityUnderLossyReplay pins the gossip safety
// property end-to-end through a lossy transport: stale, duplicated,
// reordered and worse offers — some arriving, some dropped, some retried
// after a dropped reply already applied them — can never loosen a node's
// incumbent, and offers whose witness does not achieve the claimed value
// never move it at all. The incumbent is monotone non-increasing, period.
func TestNodeOfferMonotonicityUnderLossyReplay(t *testing.T) {
	sim := NewSimNet(7, 0.3)
	node := NewNode("peer0:7000", nil, sim, 0)
	sim.Register("peer0:7000", node.Handle)

	// One genuine witness for every boundary a 4-set containing the root
	// can have on W8: the node adopts only offers their witness achieves.
	g := topology.NewWrappedButterfly(8).Graph
	witness := make(map[int][]int)
	for a := 1; a < g.N(); a++ {
		for b := a + 1; b < g.N(); b++ {
			for c := b + 1; c < g.N(); c++ {
				set := []int{0, a, b, c}
				if v := cut.EdgeBoundary(g, set); witness[v] == nil {
					witness[v] = set
				}
			}
		}
	}
	loosest, tightest := 0, 1<<30
	for v := range witness {
		loosest, tightest = max(loosest, v), min(tightest, v)
	}

	// Register the search with an empty batch seeded by the loosest
	// witness, so every better one has room to tighten it.
	spec := exact.ExpansionShardSpec{K: 4, Edge: true, Root: 0}
	const searchID = 99
	seed := shardsMsg{
		SearchID: searchID, Graph: GraphSpec(true, 8),
		K: spec.K, Root: spec.Root, Edge: spec.Edge,
		Best: int64(loosest), Witness: witness[loosest],
	}
	ctx := context.Background()
	if _, _, err := callRetry(ctx, sim, "peer0:7000", msgShards, seed.encode(), 50, time.Second); err != nil {
		t.Fatal(err)
	}

	readBest := func() int {
		// An offer with no witness is a pure read: it cannot move the bound.
		probe := offerMsg{SearchID: searchID, Best: 0, Witness: nil}.encode()
		_, rb, err := callRetry(ctx, sim, "peer0:7000", msgOffer, probe, 50, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := decodeOfferOK(rb)
		if err != nil {
			t.Fatal(err)
		}
		if !ok.Known {
			t.Fatal("node forgot the search")
		}
		return int(ok.Best)
	}

	low := readBest()
	if low != loosest || tightest >= loosest {
		t.Fatalf("seeded incumbent %d, want %d below which witnesses down to %d exist", low, loosest, tightest)
	}
	type offer struct {
		val int
		set []int
	}
	var offers []offer
	for _, v := range []int{loosest - 2, loosest, tightest + 4, loosest - 2, tightest + 2, loosest, tightest + 2, tightest, tightest + 4, tightest} {
		offers = append(offers, offer{v, witness[v]}, offer{v - 2, witness[v]}) // the second lies
	}
	for i, o := range offers {
		if o.set == nil {
			t.Fatalf("no witness of boundary %d", o.val)
		}
		msg := offerMsg{SearchID: searchID, Best: int64(o.val), Witness: o.set}.encode()
		// Fire each offer several times through the lossy net — replay on
		// purpose; a dropped reply means the offer applied invisibly —
		// then once more with retries, so it lands at least once.
		for rep := 0; rep < 3; rep++ {
			_, _, _ = sim.Call(ctx, "peer0:7000", msgOffer, msg)
		}
		if _, _, err := callRetry(ctx, sim, "peer0:7000", msgOffer, msg, 50, time.Second); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			low = min(low, o.val)
		}
		if got := readBest(); got != low {
			t.Fatalf("after offer #%d (%d, %v): incumbent %d, want the best genuine offer %d", i, o.val, o.set, got, low)
		}
	}
	if got := readBest(); got != tightest {
		t.Fatalf("final incumbent %d, want the minimum ever offered %d", got, tightest)
	}
}

// TestRouterForwardingIntegration runs two full serve servers joined by a
// SimNet cluster and checks the routing contract end to end: a key owned
// by the other peer is forwarded and answered byte-identically to asking
// the owner directly, a forwarded-in request is never bounced back out,
// and a dead owner degrades to a local solve instead of an error.
func TestRouterForwardingIntegration(t *testing.T) {
	sim := NewSimNet(3, 0)
	peers := []string{"a:7000", "b:7000"}

	mkServer := func(self string) (*serve.Server, *Router) {
		rt := NewRouter(self, peers, sim, 2*time.Second, 2)
		srv := serve.New(serve.Config{Peers: rt})
		sim.Register(self, NewNode(self, srv.Handler(), sim, 0).Handle)
		return srv, rt
	}
	srvA, rtA := mkServer("a:7000")
	srvB, _ := mkServer("b:7000")
	htA := httptest.NewServer(srvA.Handler())
	htB := httptest.NewServer(srvB.Handler())
	t.Cleanup(func() {
		htA.Close()
		htB.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srvA.Shutdown(ctx)
		_ = srvB.Shutdown(ctx)
	})

	fetch := func(base, query string, hdr map[string]string) (int, http.Header, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, body
	}

	// Split the candidate queries by ring ownership, computed exactly the
	// way the server does (canonical key = endpoint + "?" + request key).
	type cand struct{ query, key string }
	var ownedByA, ownedByB []cand
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		c := cand{
			query: fmt.Sprintf("/v1/bisection?network=bn&n=%d", n),
			key:   fmt.Sprintf("bisection?network=bn&n=%d&exact-nodes=32", n),
		}
		if owner, ok := rtA.Owner(c.key); !ok {
			t.Fatalf("no owner for %s", c.key)
		} else if owner == "a:7000" {
			ownedByA = append(ownedByA, c)
		} else {
			ownedByB = append(ownedByB, c)
		}
	}
	if len(ownedByA) == 0 || len(ownedByB) == 0 {
		t.Fatalf("ring put all keys on one peer: A=%v B=%v", ownedByA, ownedByB)
	}

	// A B-owned key asked of A: forwarded, attributed, byte-identical.
	q := ownedByB[0].query
	status, hdr, viaA := fetch(htA.URL, q, nil)
	if status != http.StatusOK {
		t.Fatalf("forwarded query: status %d: %s", status, viaA)
	}
	if got := hdr.Get("X-Cluster-Peer"); got != "b:7000" {
		t.Fatalf("X-Cluster-Peer = %q, want b:7000", got)
	}
	if got := hdr.Get("X-Cache"); got != "peer" {
		t.Fatalf("X-Cache = %q, want peer", got)
	}
	status, hdr, direct := fetch(htB.URL, q, nil)
	if status != http.StatusOK {
		t.Fatalf("direct query to owner: status %d", status)
	}
	// The owner solved this key when A forwarded it, so asking it
	// directly is a plain cache hit — answered before the cluster layer
	// is ever consulted, hence no peer attribution.
	if got := hdr.Get("X-Cache"); got != "hit" {
		t.Fatalf("owner's direct answer X-Cache = %q, want hit", got)
	}
	if string(viaA) != string(direct) {
		t.Fatalf("forwarded body differs from owner's:\n via A: %s\ndirect: %s", viaA, direct)
	}

	// An A-owned key asked of A: answered locally, still attributed.
	status, hdr, _ = fetch(htA.URL, ownedByA[0].query, nil)
	if status != http.StatusOK {
		t.Fatalf("local query: status %d", status)
	}
	if got := hdr.Get("X-Cluster-Peer"); got != "a:7000" {
		t.Fatalf("local key attributed to %q", got)
	}

	// Loop prevention: a request carrying the internal marker is answered
	// where it lands, even for a key the ring assigns elsewhere.
	status, hdr, _ = fetch(htA.URL, ownedByB[0].query, map[string]string{InternalHeader: "1"})
	if status != http.StatusOK {
		t.Fatalf("internal-marked query: status %d", status)
	}
	if got := hdr.Get("X-Cluster-Peer"); got != "a:7000" {
		t.Fatalf("internal-marked query was bounced to %q", got)
	}

	// Dead owner: forwarding fails, the request falls back to a local
	// solve, and the benched peer's keys reassign for the cooldown.
	if len(ownedByB) < 2 {
		t.Skip("need a second B-owned key for the dead-owner case")
	}
	sim.SetDown("b:7000", true)
	status, hdr, _ = fetch(htA.URL, ownedByB[1].query, nil)
	if status != http.StatusOK {
		t.Fatalf("query with dead owner: status %d", status)
	}
	if got := hdr.Get("X-Cluster-Peer"); got != "a:7000" {
		t.Fatalf("dead-owner fallback attributed to %q", got)
	}
	if owner, ok := rtA.Owner(ownedByB[1].key); ok && owner == "b:7000" {
		t.Fatalf("benched peer still owns its keys")
	}
}
