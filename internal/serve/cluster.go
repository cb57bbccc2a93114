package serve

import "net/http"

// PeerRouter shards canonical request keys across a cluster of
// butterflyd peers. The serve layer stays transport-agnostic: it hands
// the router the request, the canonical key and the request ID, and
// either relays the owning peer's response or answers locally.
// internal/cluster provides the implementation; the indirection keeps the
// import pointing from cluster to serve, never back.
type PeerRouter interface {
	// Route resolves key's owner and, when it is a remote peer, returns
	// that peer's response to the same request, asked under id. ok is
	// false when this node should answer locally: it owns the key, the
	// request already arrived from a peer, or the owner is unreachable
	// and local solving is the fallback.
	Route(r *http.Request, key, id string) (resp *PeerResponse, ok bool)
	// Self is this node's address — the X-Cluster-Peer value of locally
	// answered responses.
	Self() string
}

// PeerResponse is an owning peer's answer, relayed verbatim.
type PeerResponse struct {
	// Status is the peer's HTTP status; Body its exact response bytes —
	// a forwarded answer is byte-identical to asking the owner directly.
	Status int
	Body   []byte
	// RetryAfter is the peer's Retry-After header on a 429/503, relayed
	// so a client backs off exactly as if it had asked the owner.
	RetryAfter string
	// Incomplete reports the peer's IncompleteHeader on a truncated 200,
	// relayed so the answer counts as a timeout here as it does there.
	Incomplete bool
	// Peer is the address that answered — the X-Cluster-Peer provenance.
	Peer string
}
