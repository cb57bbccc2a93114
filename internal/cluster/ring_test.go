package cluster

import (
	"fmt"
	"testing"
)

func allAlive(string) bool { return true }

// TestRingOwnershipStability is the rendezvous-hashing contract: killing
// one peer reassigns ONLY that peer's keys — every key owned by a
// survivor keeps its owner, so a peer failure invalidates exactly the
// dead peer's share of the cache, not the whole ring.
func TestRingOwnershipStability(t *testing.T) {
	peers := []string{"10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000", "10.0.0.4:7000"}
	r := NewRing(peers)

	keys := make([]string, 0, 200)
	for n := 0; n < 200; n++ {
		keys = append(keys, fmt.Sprintf("expansion?kind=wn&n=16&d=edge&exact-nodes=64&kmax=%d", n))
	}

	before := make(map[string]string, len(keys))
	perPeer := make(map[string]int)
	for _, k := range keys {
		owner, ok := r.Owner(k, allAlive)
		if !ok {
			t.Fatalf("no owner for %q with all peers alive", k)
		}
		before[k] = owner
		perPeer[owner]++
	}
	for _, p := range peers {
		if perPeer[p] == 0 {
			t.Fatalf("peer %s owns no keys out of %d — hash badly skewed: %v", p, len(keys), perPeer)
		}
	}

	// Determinism: a second ring over the same peers agrees on every key.
	r2 := NewRing([]string{peers[3], peers[1], peers[0], peers[2]}) // order must not matter
	for _, k := range keys {
		owner, _ := r2.Owner(k, allAlive)
		if owner != before[k] {
			t.Fatalf("ring built in a different order moved %q: %s → %s", k, before[k], owner)
		}
	}

	// Kill one peer: its keys reassign, everyone else's stay put.
	dead := peers[2]
	alive := func(addr string) bool { return addr != dead }
	moved := 0
	for _, k := range keys {
		owner, ok := r.Owner(k, alive)
		if !ok {
			t.Fatalf("no owner for %q with 3 peers alive", k)
		}
		if owner == dead {
			t.Fatalf("dead peer %s still owns %q", dead, k)
		}
		if before[k] == dead {
			moved++
			continue
		}
		if owner != before[k] {
			t.Fatalf("killing %s moved %q from survivor %s to %s", dead, k, before[k], owner)
		}
	}
	if moved != perPeer[dead] {
		t.Fatalf("moved %d keys, but dead peer owned %d", moved, perPeer[dead])
	}

	// All dead: no owner, not a panic.
	if owner, ok := r.Owner(keys[0], func(string) bool { return false }); ok {
		t.Fatalf("ownerless ring returned %q", owner)
	}

	// Duplicate peers collapse.
	if got := len(NewRing([]string{"a:1", "a:1", "b:2"}).Addrs()); got != 2 {
		t.Fatalf("duplicate peers not collapsed: %d addrs", got)
	}
}

// Addrs returns the ring membership in construction order.
func (r *Ring) Addrs() []string {
	out := make([]string, len(r.addrs))
	copy(out, r.addrs)
	return out
}
