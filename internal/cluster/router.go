// Package cluster shards butterflyd across peers: a rendezvous-hashed
// key router forwards each serve query to the peer that owns its
// canonical key, as a plain HTTP GET to that peer's own /v1/* endpoint,
// and relays the answer verbatim.
package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

var (
	metricForwarded     = obs.NewCounter("cluster.forwarded")
	metricForwardErrors = obs.NewCounter("cluster.forward_errors")
)

// InternalHeader marks a request forwarded by a peer. The router answers
// such requests locally unconditionally — a peer must never bounce a
// forwarded query back out, or two nodes disagreeing about ownership
// would loop it forever.
const InternalHeader = "X-Cluster-Internal"

const (
	// forwardAttempts is the per-request attempt budget: one retry rides
	// out a single lost exchange before the owner is benched.
	forwardAttempts = 2
	// dialTimeout bounds connecting to an owner on the default transport,
	// so an owner whose host is down or cut off fails both attempts in
	// about 2×dialTimeout, well inside a client's request budget, and is
	// benched instead of stalling every request for its keys.
	dialTimeout = 2 * time.Second
	// maxBodyBytes bounds one relayed body; a longer one is a failed
	// forward, not an unbounded allocation.
	maxBodyBytes = 1 << 26
	// deadPeerCooldown is how long a failed peer stays out of the ring
	// before forwarding is attempted again.
	deadPeerCooldown = 5 * time.Second
)

// Router consistent-hashes canonical serve keys across the peer ring and
// proxies each query to its owner. It implements serve.PeerRouter.
//
// Failure policy: a peer that stays unreachable through the retry budget
// is benched for a cooldown — its keys rendezvous-reassign to the
// remaining peers — and the triggering request falls back to a local
// solve, trading strict ownership for availability.
type Router struct {
	self    string
	ring    *Ring
	tr      http.RoundTripper
	timeout time.Duration

	mu        sync.Mutex
	deadUntil map[string]time.Time
}

// NewRouter builds the router for one node. peers are the daemons' HTTP
// addresses; self must appear among them for this node to own any keys.
// tr carries the forwards (nil: peerTransport over a plain net.Dialer);
// timeout bounds each forwarding attempt (≤0: 10s).
func NewRouter(self string, peers []string, tr http.RoundTripper, timeout time.Duration) *Router {
	if tr == nil {
		tr = peerTransport(new(net.Dialer).DialContext)
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &Router{
		self:      self,
		ring:      NewRing(peers),
		tr:        tr,
		timeout:   timeout,
		deadUntil: make(map[string]time.Time),
	}
}

// peerTransport is the forwards' default transport: peers are dialled
// directly, never through a proxy from the environment, and each dial
// gives up after dialTimeout.
func peerTransport(dial func(ctx context.Context, network, addr string) (net.Conn, error)) *http.Transport {
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			ctx, cancel := context.WithTimeout(ctx, dialTimeout)
			defer cancel()
			return dial(ctx, network, addr)
		},
		IdleConnTimeout: 90 * time.Second,
	}
}

// Self returns this node's address.
func (rt *Router) Self() string { return rt.self }

func (rt *Router) alive(addr string) bool {
	if addr == rt.self {
		return true
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return time.Now().After(rt.deadUntil[addr])
}

func (rt *Router) bench(addr string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.deadUntil[addr] = time.Now().Add(deadPeerCooldown)
}

// Route implements serve.PeerRouter: it forwards r to key's owner under
// the request ID id, retrying once, and benches an owner it could not
// get an answer from. That includes a client hanging up first: an owner
// that accepted the connection and stalled looks exactly like that, and
// benching is what lets the next request for its keys fall back at once.
func (rt *Router) Route(r *http.Request, key, id string) (*serve.PeerResponse, bool) {
	if r.Header.Get(InternalHeader) != "" {
		return nil, false
	}
	owner, ok := rt.ring.Owner(key, rt.alive)
	if !ok || owner == rt.self {
		return nil, false
	}
	ctx := r.Context()
	for i := 0; i < forwardAttempts && ctx.Err() == nil; i++ {
		if pr, err := rt.forward(ctx, owner, r.URL.RequestURI(), id); err == nil {
			metricForwarded.Inc()
			return pr, true
		}
	}
	metricForwardErrors.Inc()
	rt.bench(owner)
	return nil, false
}

// forward is one attempt: GET the owner's own endpoint, marked internal
// and carrying the request ID, so the owner's access log joins this
// node's on the same id.
func (rt *Router) forward(ctx context.Context, owner, uri, id string) (*serve.PeerResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+owner+uri, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(InternalHeader, "1")
	req.Header.Set("X-Request-ID", id)
	resp, err := rt.tr.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxBodyBytes {
		return nil, fmt.Errorf("cluster: reply from %s exceeds %d bytes", owner, maxBodyBytes)
	}
	return &serve.PeerResponse{
		Status:     resp.StatusCode,
		Body:       body,
		RetryAfter: resp.Header.Get("Retry-After"),
		Incomplete: resp.Header.Get(serve.IncompleteHeader) == "false",
		Peer:       owner,
	}, nil
}
