package cluster

import (
	"hash/fnv"

	"repro/internal/bitutil"
)

// NodeID derives a peer's 64-bit identity from its address — fnv64a, so
// every party computes the same ID table from the same -peers list with
// no join protocol.
func NodeID(addr string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(addr))
	return h.Sum64()
}

// Ring is a rendezvous (highest-random-weight) hash over a fixed peer
// list: each key belongs to the alive peer with the maximal mixed
// (nodeID, keyHash) score. Unlike a mod-N ring, removing a dead peer
// reassigns only that peer's keys — every other key keeps its owner, so
// peer caches stay warm through failures.
type Ring struct {
	addrs []string
	ids   []uint64
}

// NewRing builds a ring over addrs (duplicates dropped, order kept).
func NewRing(addrs []string) *Ring {
	r := &Ring{}
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		r.addrs = append(r.addrs, a)
		r.ids = append(r.ids, NodeID(a))
	}
	return r
}

// Owner returns the alive peer owning key. alive == nil means all peers
// are alive; ok is false when no alive peer exists.
func (r *Ring) Owner(key string, alive func(addr string) bool) (string, bool) {
	kh := NodeID(key)
	best, bestScore, ok := "", uint64(0), false
	for i, addr := range r.addrs {
		if alive != nil && !alive(addr) {
			continue
		}
		score := bitutil.Mix64(r.ids[i] ^ kh) // the rendezvous score
		if !ok || score > bestScore || (score == bestScore && addr < best) {
			best, bestScore, ok = addr, score, true
		}
	}
	return best, ok
}
