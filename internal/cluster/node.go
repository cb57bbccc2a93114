package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/solve"
)

var (
	metricShardBatches = obs.NewCounter("cluster.shard_batches")
	metricOffersIn     = obs.NewCounter("cluster.offers_in")
	metricOffersOut    = obs.NewCounter("cluster.offers_out")
	metricPeerQueries  = obs.NewCounter("cluster.peer_queries")
)

// InternalHeader marks a request that arrived over the cluster transport.
// The serve-layer router answers such requests locally unconditionally —
// a peer must never bounce a forwarded query back out, or two nodes
// disagreeing about ownership would loop it forever.
const InternalHeader = "X-Cluster-Internal"

// maxNodeSearches bounds the per-node live-search table. Searches are
// coordinator-scoped and short; evicting the oldest merely turns late
// gossip for it into a no-op.
const maxNodeSearches = 16

// Node is one cluster peer's RPC surface: it executes shard batches of
// distributed expansion searches against a per-search incumbent, absorbs
// and answers incumbent gossip, and dispatches forwarded serve queries
// into the local serve mux. Wire it to a listener with ServeTransport
// (TCP) or SimNet.Register (tests).
type Node struct {
	addr    string
	workers int
	local   http.Handler
	tr      Transport

	mu       sync.Mutex
	searches map[uint64]*nodeSearch
	order    []uint64
}

type nodeSearch struct {
	g      *graph.Graph
	spec   exact.ExpansionShardSpec
	si     *exact.ShardIncumbent
	id     uint64
	origin string
	mu     sync.Mutex // guards origin
}

// NewNode builds a peer. local is the node's serve mux for forwarded
// queries (nil rejects them); tr, when non-nil, carries push-gossip of
// local incumbent improvements back to each search's coordinator;
// workers bounds one shard batch's search goroutines (≤0: GOMAXPROCS).
func NewNode(addr string, local http.Handler, tr Transport, workers int) *Node {
	return &Node{
		addr:     addr,
		workers:  workers,
		local:    local,
		tr:       tr,
		searches: make(map[uint64]*nodeSearch),
	}
}

// Addr returns the node's cluster address.
func (n *Node) Addr() string { return n.addr }

// Handle is the node's transport handler.
func (n *Node) Handle(ctx context.Context, t MsgType, body []byte) (MsgType, []byte, error) {
	switch t {
	case msgShards:
		return n.handleShards(ctx, body)
	case msgOffer:
		return n.handleOffer(body)
	case msgQuery:
		return n.handleQuery(ctx, body)
	}
	return "", nil, fmt.Errorf("cluster: node %s: unknown message type %q", n.addr, t)
}

// search returns the live state of searchID, creating it on first
// contact. The incumbent's improvement hook push-gossips to the search's
// origin, so the coordinator hears mid-batch improvements without
// waiting for the batch reply.
func (n *Node) search(m shardsMsg, g *graph.Graph, spec exact.ExpansionShardSpec) *nodeSearch {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ns, ok := n.searches[m.SearchID]; ok {
		if m.Origin != "" {
			ns.mu.Lock()
			ns.origin = m.Origin
			ns.mu.Unlock()
		}
		return ns
	}
	ns := &nodeSearch{g: g, spec: spec, id: m.SearchID, origin: m.Origin}
	ns.si = exact.NewShardIncumbent(g, spec, func(val int, set []int) {
		n.gossip(ns, val, set)
	})
	n.searches[m.SearchID] = ns
	n.order = append(n.order, m.SearchID)
	if len(n.order) > maxNodeSearches {
		delete(n.searches, n.order[0])
		n.order = n.order[1:]
	}
	return ns
}

// gossip pushes one locally found improvement to the search's origin,
// best-effort: a lost offer only costs pruning power, never correctness,
// so there are no retries and failures are silent.
func (n *Node) gossip(ns *nodeSearch, val int, set []int) {
	if n.tr == nil {
		return
	}
	ns.mu.Lock()
	origin := ns.origin
	ns.mu.Unlock()
	if origin == "" || origin == n.addr {
		return
	}
	body := offerMsg{SearchID: ns.id, Best: int64(val), Witness: set}.encode()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		metricOffersOut.Inc()
		_, _, _ = call(ctx, n.tr, origin, msgOffer, body)
	}()
}

func (n *Node) handleShards(ctx context.Context, body []byte) (MsgType, []byte, error) {
	m, err := decodeShardsMsg(body)
	if err != nil {
		return "", nil, err
	}
	g, err := ParseGraphSpec(m.Graph)
	if err != nil {
		return "", nil, err
	}
	spec := exact.ExpansionShardSpec{K: m.K, Edge: m.Edge, Root: m.Root}
	if err := spec.Validate(g); err != nil {
		return "", nil, err
	}
	count := exact.ExpansionShardCount(g, spec)
	for _, id := range m.IDs {
		if id < 0 || id >= count {
			return "", nil, fmt.Errorf("cluster: node %s: shard id %d out of range [0, %d)", n.addr, id, count)
		}
	}
	metricShardBatches.Inc()
	ns := n.search(m, g, spec)
	if m.Witness != nil {
		ns.si.Offer(int(m.Best), m.Witness)
	}
	mon := solve.Start(solve.Options{Ctx: ctx, Name: "cluster.shards"})
	out := exact.SearchExpansionShards(g, spec, m.IDs, n.workers, ns.si, mon)
	mon.Close()
	best, wit := ns.si.Best()
	return msgShardsOK, shardsOK{
		Complete: out.Complete,
		Best:     int64(best),
		Witness:  wit,
		Explored: out.Explored,
		Pruned:   out.Pruned,
	}.encode(), nil
}

func (n *Node) handleOffer(body []byte) (MsgType, []byte, error) {
	m, err := decodeOfferMsg(body)
	if err != nil {
		return "", nil, err
	}
	metricOffersIn.Inc()
	n.mu.Lock()
	ns, ok := n.searches[m.SearchID]
	n.mu.Unlock()
	if !ok {
		return msgOfferOK, offerOK{Known: false}.encode(), nil
	}
	if m.Witness != nil {
		ns.si.Offer(int(m.Best), m.Witness)
	}
	best, wit := ns.si.Best()
	return msgOfferOK, offerOK{Known: true, Best: int64(best), Witness: wit}.encode(), nil
}

// handleQuery answers a forwarded serve query through the node's own
// mux: the same parse → cache → coalesce → solve path a direct request
// takes, so the relayed body is byte-identical to asking this node
// directly. The internal marker stops the local router from forwarding
// it again.
func (n *Node) handleQuery(ctx context.Context, body []byte) (MsgType, []byte, error) {
	m, err := decodeQueryMsg(body)
	if err != nil {
		return "", nil, err
	}
	if n.local == nil {
		return "", nil, fmt.Errorf("cluster: node %s serves no queries", n.addr)
	}
	metricPeerQueries.Inc()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.Path+"?"+m.RawQuery, nil)
	if err != nil {
		return "", nil, fmt.Errorf("cluster: rebuilding forwarded query: %w", err)
	}
	req.Header.Set(InternalHeader, "1")
	rec := &responseRecorder{status: http.StatusOK, header: make(http.Header)}
	n.local.ServeHTTP(rec, req)
	return msgQueryOK, queryOK{
		Status: uint32(rec.status),
		Source: rec.header.Get("X-Cache"),
		Body:   rec.body.Bytes(),
	}.encode(), nil
}

// responseRecorder captures one in-process dispatch into the serve mux.
type responseRecorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) WriteHeader(status int) { r.status = status }

func (r *responseRecorder) Write(p []byte) (int, error) { return r.body.Write(p) }
