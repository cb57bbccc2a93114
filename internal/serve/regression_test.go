package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestCoalescedFollowerSurvivesLeaderCancel pins the coalescing
// detachment fix: the leader's solve used to run on the leader's own
// request context, so a leader whose client hung up while queued for a
// solve slot poisoned every coalesced follower with its cancellation.
// The solve must run on a server-lifetime context bounded by the budget:
// leader cancels, follower still gets a complete 200.
func TestCoalescedFollowerSurvivesLeaderCancel(t *testing.T) {
	blockerGate := make(chan struct{})
	blockerStarted := make(chan struct{}, 1)
	s := New(Config{MaxInflight: 1})
	s.solveHook = func(key string) {
		if strings.Contains(key, "network=bn") {
			blockerStarted <- struct{}{}
			<-blockerGate
		}
	}
	base := startServer(t, s)

	// Occupy the only solve slot, so the leader of interest queues.
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		st, _, body := get(t, base+"/v1/bisection?network=bn&n=2")
		if st != http.StatusOK {
			t.Errorf("blocker: status %d: %s", st, body)
		}
	}()
	<-blockerStarted

	// The leader: a client that will hang up while queued.
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	url := base + "/v1/bisection?network=wn&n=4"
	go func() {
		defer close(leaderDone)
		req, err := http.NewRequestWithContext(leaderCtx, http.MethodGet, url, nil)
		if err != nil {
			t.Errorf("leader request: %v", err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return s.queued.Load() >= 1 }, "leader never queued for a slot")

	// The follower coalesces behind the queued leader.
	coalescedBefore := metricCoalesced.Value()
	type outcome struct {
		status int
		source string
		body   []byte
	}
	followerDone := make(chan outcome, 1)
	go func() {
		st, src, body := get(t, url)
		followerDone <- outcome{st, src, body}
	}()
	waitFor(t, func() bool { return metricCoalesced.Value() > coalescedBefore },
		"follower never attached to the leader's flight")

	// The leader's client gives up; the detached solve must not notice.
	cancelLeader()
	<-leaderDone
	time.Sleep(20 * time.Millisecond) // let any (buggy) cancellation propagate
	close(blockerGate)

	o := <-followerDone
	if o.status != http.StatusOK {
		t.Fatalf("follower after leader cancel: status %d (%s): %s", o.status, o.source, o.body)
	}
	if o.source != "coalesced" {
		t.Fatalf("follower source = %q, want coalesced", o.source)
	}
	_, row := decodeResponse(t, o.body)
	if row["complete"] != true {
		t.Fatalf("follower got an incomplete answer: %v", row)
	}
	<-blockerDone
}

// TestStoreHitRewarmDoesNotRespill pins the store/re-warm interaction: a
// store hit re-inserts the response into the LRU, and neither that hit
// nor the entry's later eviction may append a duplicate record to the
// store — store.writes stays flat across a hit→evict cycle of an
// already-persisted key.
func TestStoreHitRewarmDoesNotRespill(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })

	writes := obs.Default.Counter("store.writes")
	s := New(Config{CacheEntries: 1, Store: st})
	base := startServer(t, s)
	urlA := base + "/v1/bisection?network=wn&n=4"
	urlB := base + "/v1/bisection?network=wn&n=8"

	// Solve A, then B, which displaces A; each solve appends its record.
	if status, src, _ := get(t, urlA); status != http.StatusOK || src != "miss" {
		t.Fatalf("prime A: status=%d source=%q", status, src)
	}
	if status, _, _ := get(t, urlB); status != http.StatusOK {
		t.Fatalf("displace A: status=%d", status)
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d records after two solves, want 2", st.Len())
	}

	// Store hit: A re-enters the LRU.
	status, src, _ := get(t, urlA)
	if status != http.StatusOK || src != "store-hit" {
		t.Fatalf("re-warm A: status=%d source=%q, want store-hit", status, src)
	}

	// Displace the re-warmed A with B, itself a store-hit now: neither
	// the hit nor A's eviction writes, so writes stays flat.
	writesBefore := writes.Value()
	lenBefore := st.Len()
	if status, src, _ := get(t, urlB); status != http.StatusOK || src != "store-hit" {
		t.Fatalf("displace re-warmed A: status=%d source=%q, want store-hit", status, src)
	}
	waitFor(t, func() bool {
		if resp, ok := s.cache.get("bisection?network=wn&n=4&exact-nodes=32"); ok && resp != nil {
			return false // A still resident, eviction not done yet
		}
		return true
	}, "re-warmed A never left the cache")
	if got := writes.Value() - writesBefore; got != 0 {
		t.Fatalf("store.writes grew by %d across a hit→evict cycle, want 0", got)
	}
	if st.Len() != lenBefore {
		t.Fatalf("store keys went %d → %d across a hit→evict cycle", lenBefore, st.Len())
	}

	// And A is still answerable from disk.
	if status, src, _ := get(t, urlA); status != http.StatusOK || src != "store-hit" {
		t.Fatalf("A after cycle: status=%d source=%q, want store-hit", status, src)
	}
}
