package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cut"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/obs"
)

var (
	metricBatchesDone   = obs.NewCounter("cluster.batches_done")
	metricBatchesStolen = obs.NewCounter("cluster.batches_stolen")
	metricPeersDeclared = obs.NewCounter("cluster.peers_declared_dead")
	metricGossipRelayed = obs.NewCounter("cluster.gossip_relayed")
)

// CoordinatorConfig tunes the distributed search scheduler.
type CoordinatorConfig struct {
	// Self is this coordinator's own transport address: the Origin peers
	// push mid-batch incumbent improvements to. Register Handle at this
	// address; "" disables push gossip (bounds still flow via batch
	// replies).
	Self string
	// Peers are the worker node addresses.
	Peers []string
	// Transport carries every exchange.
	Transport Transport
	// CallTimeout bounds one shard-batch RPC; a batch not answered in
	// time is requeued to another peer — the work-steal (≤0: 60s).
	CallTimeout time.Duration
	// Retries is how many consecutive failures a peer gets before it is
	// declared dead and its worker loop exits (≤0: 3). Each batch attempt
	// already retries transport drops internally.
	Retries int
	// BatchShards is the steal granularity: shards per batch (≤0: spread
	// the shard count over 4 batches per peer).
	BatchShards int
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.CallTimeout <= 0 {
		c.CallTimeout = 60 * time.Second
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	return c
}

// Coordinator distributes exact expansion searches: it partitions the
// BFS-prefix shard enumeration into batches, feeds them to per-peer
// dispatch loops over a shared queue (fast peers drain what stragglers
// never pull — the scheduling half of work stealing), requeues batches
// whose peer timed out or died (the recovery half), and maintains the
// global incumbent — every improvement heard from any peer is relayed to
// all others, so each peer prunes against the cluster-wide best witness.
type Coordinator struct {
	cfg CoordinatorConfig
	seq atomic.Uint64

	mu   sync.Mutex
	runs map[uint64]*searchRun
}

type searchRun struct {
	si    *exact.ShardIncumbent
	coord *Coordinator
	id    uint64
	peers []string
}

// NewCoordinator builds a coordinator over cfg's peer set.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	return &Coordinator{cfg: cfg.withDefaults(), runs: make(map[uint64]*searchRun)}
}

// Handle is the coordinator's transport handler: it absorbs pushed
// incumbent offers into the matching live search and relays improvements
// onward. Register it at cfg.Self on the shared transport.
func (c *Coordinator) Handle(ctx context.Context, t MsgType, body []byte) (MsgType, []byte, error) {
	if t != msgOffer {
		return "", nil, fmt.Errorf("cluster: coordinator handles only offers, got %q", t)
	}
	m, err := decodeOfferMsg(body)
	if err != nil {
		return "", nil, err
	}
	metricOffersIn.Inc()
	c.mu.Lock()
	run, ok := c.runs[m.SearchID]
	c.mu.Unlock()
	if !ok {
		return msgOfferOK, offerOK{Known: false}.encode(), nil
	}
	if m.Witness != nil && run.si.Offer(int(m.Best), m.Witness) {
		run.relay(ctx, int(m.Best), m.Witness, "")
	}
	best, wit := run.si.Best()
	return msgOfferOK, offerOK{Known: true, Best: int64(best), Witness: wit}.encode(), nil
}

// relay broadcasts an incumbent to every peer except skip, best-effort
// and asynchronously — a lost relay costs pruning power, not
// correctness.
func (r *searchRun) relay(ctx context.Context, best int, wit []int, skip string) {
	body := offerMsg{SearchID: r.id, Best: int64(best), Witness: wit}.encode()
	for _, addr := range r.peers {
		if addr == skip || addr == r.coord.cfg.Self {
			continue
		}
		go func(addr string) {
			octx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
			defer cancel()
			metricGossipRelayed.Inc()
			_, _, _ = call(octx, r.coord.cfg.Transport, addr, msgOffer, body)
		}(addr)
	}
}

// SearchStats reports how a distributed search went.
type SearchStats struct {
	Shards   int
	Batches  int
	Stolen   int            // batches requeued off a failed/late peer
	PerPeer  map[string]int // batches completed per peer
	Dead     []string       // peers declared dead during the search
	Explored int64
	Pruned   int64
}

// SearchResult is a certified distributed optimum: Value is exact, and
// Witness achieves it (validated against the graph before returning).
type SearchResult struct {
	Value   int
	Witness []int
	Stats   SearchStats
}

// batch is one stealable unit of work.
type batch struct {
	ids  []int
	done atomic.Bool
}

// SearchExpansion runs one exact expansion search distributed over the
// coordinator's peers. graphSpec must name g (see GraphSpec); the solve
// is exact iff every shard batch ran to exhaustion somewhere, which this
// method guarantees or fails: it returns an error when the remaining
// work outlives every peer, never a silently partial optimum.
func (c *Coordinator) SearchExpansion(ctx context.Context, g *graph.Graph, graphSpec string, spec exact.ExpansionShardSpec) (*SearchResult, error) {
	if err := spec.Validate(g); err != nil {
		return nil, err
	}
	if len(c.cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers configured")
	}
	count := exact.ExpansionShardCount(g, spec)

	run := &searchRun{
		coord: c,
		id:    mix64(NodeID(c.cfg.Self) ^ mix64(c.seq.Add(1))),
		peers: c.cfg.Peers,
	}
	// The coordinator's incumbent never records locally (it only absorbs
	// Offers), so improvements are relayed at the call sites where Offer
	// reports movement — no hook needed.
	run.si = exact.NewShardIncumbent(g, spec, nil)
	c.mu.Lock()
	c.runs[run.id] = run
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.runs, run.id)
		c.mu.Unlock()
	}()

	batchSize := c.cfg.BatchShards
	if batchSize <= 0 {
		batchSize = (count + 4*len(c.cfg.Peers) - 1) / (4 * len(c.cfg.Peers))
		if batchSize < 1 {
			batchSize = 1
		}
	}
	var batches []*batch
	for lo := 0; lo < count; lo += batchSize {
		hi := lo + batchSize
		if hi > count {
			hi = count
		}
		ids := make([]int, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ids = append(ids, id)
		}
		batches = append(batches, &batch{ids: ids})
	}

	// The queue holds every undone batch exactly once; its capacity means
	// a requeue can never block a dispatch loop.
	queue := make(chan *batch, len(batches))
	for _, b := range batches {
		queue <- b
	}
	var (
		remaining   = int64(len(batches))
		allDone     = make(chan struct{})
		workersLive = int64(len(c.cfg.Peers))
		workersGone = make(chan struct{})
		statsMu     sync.Mutex
		stats       = SearchStats{Shards: count, Batches: len(batches), PerPeer: make(map[string]int)}
	)

	sctx, cancelSearch := context.WithCancel(ctx)
	defer cancelSearch()

	var wg sync.WaitGroup
	for _, addr := range c.cfg.Peers {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			defer func() {
				if atomic.AddInt64(&workersLive, -1) == 0 {
					close(workersGone)
				}
			}()
			failures := 0
			for {
				var b *batch
				select {
				case b = <-queue:
				case <-allDone:
					return
				case <-sctx.Done():
					return
				}
				if b.done.Load() {
					continue
				}
				best, wit := run.si.Best()
				msg := shardsMsg{
					SearchID: run.id,
					Graph:    graphSpec,
					K:        spec.K,
					Root:     spec.Root,
					Edge:     spec.Edge,
					Origin:   c.cfg.Self,
					Best:     int64(best),
					Witness:  wit,
					IDs:      b.ids,
				}
				_, rb, err := callRetry(sctx, c.cfg.Transport, addr, msgShards, msg.encode(), 2, c.cfg.CallTimeout)
				var reply shardsOK
				if err == nil {
					reply, err = decodeShardsOK(rb)
				}
				if err == nil && !reply.Complete {
					err = fmt.Errorf("cluster: peer %s abandoned batch", addr)
				}
				if err != nil {
					// Give the batch back: whichever peer pulls it next
					// has stolen it. The RPC may still be running on a
					// merely slow peer — duplicate execution is safe, the
					// incumbent is monotone and completion is CAS-guarded.
					queue <- b
					if sctx.Err() != nil {
						return
					}
					metricBatchesStolen.Inc()
					statsMu.Lock()
					stats.Stolen++
					statsMu.Unlock()
					failures++
					if failures >= c.cfg.Retries {
						metricPeersDeclared.Inc()
						statsMu.Lock()
						stats.Dead = append(stats.Dead, addr)
						statsMu.Unlock()
						return
					}
					continue
				}
				failures = 0
				if reply.Witness != nil && run.si.Offer(int(reply.Best), reply.Witness) {
					run.relay(sctx, int(reply.Best), reply.Witness, addr)
				}
				statsMu.Lock()
				stats.Explored += reply.Explored
				stats.Pruned += reply.Pruned
				statsMu.Unlock()
				if b.done.CompareAndSwap(false, true) {
					metricBatchesDone.Inc()
					statsMu.Lock()
					stats.PerPeer[addr]++
					statsMu.Unlock()
					if atomic.AddInt64(&remaining, -1) == 0 {
						close(allDone)
					}
				}
			}
		}(addr)
	}

	var err error
	select {
	case <-allDone:
	case <-workersGone:
		if atomic.LoadInt64(&remaining) > 0 {
			err = fmt.Errorf("cluster: %d of %d batches unfinished: every peer dead or exhausted",
				atomic.LoadInt64(&remaining), len(batches))
		}
	case <-ctx.Done():
		err = ctx.Err()
	}
	cancelSearch()
	wg.Wait()
	if err != nil {
		return nil, err
	}

	best, wit := run.si.Best()
	if wit == nil || len(wit) != spec.K {
		return nil, fmt.Errorf("cluster: search finished without a %d-node witness", spec.K)
	}
	var achieved int
	if spec.Edge {
		achieved = cut.EdgeBoundary(g, wit)
	} else {
		achieved = len(cut.NodeBoundary(g, wit))
	}
	if achieved != best {
		return nil, fmt.Errorf("cluster: witness achieves %d but incumbent claims %d — wire corruption", achieved, best)
	}
	sort.Ints(wit)
	stats.Dead = dedupeStrings(stats.Dead)
	return &SearchResult{Value: best, Witness: wit, Stats: stats}, nil
}

func dedupeStrings(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	sort.Strings(in)
	out := in[:1]
	for _, s := range in[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}
