package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// unbounded is a byte budget no cache-test entry can exceed, so the
// entry-count bound is the one under test.
const unbounded = 1 << 30

func TestLRUCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRUCache(2, unbounded)
	a, b, d := &response{body: []byte("a")}, &response{body: []byte("b")}, &response{body: []byte("d")}
	c.put("a", a)
	c.put("b", b)
	if _, ok := c.get("a"); !ok { // promotes a over b
		t.Fatal("a missing")
	}
	c.put("d", d) // evicts b, the least recently used
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	if got, ok := c.get("a"); !ok || string(got.body) != "a" {
		t.Fatal("promoted entry a was evicted")
	}
	if got, ok := c.get("d"); !ok || string(got.body) != "d" {
		t.Fatal("fresh entry d missing")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestLRUCacheReplaceExisting(t *testing.T) {
	c := newLRUCache(2, unbounded)
	c.put("k", &response{body: []byte("v1")})
	c.put("k", &response{body: []byte("v2")})
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
	got, ok := c.get("k")
	if !ok || string(got.body) != "v2" {
		t.Fatalf("got %q, want v2", got.body)
	}
}

// TestLRUCacheByteBound: the cache evicts on approximate byte size even
// when far under the entry-count limit — the guard against a handful of
// huge report manifests blowing memory at "only" 256 entries.
func TestLRUCacheByteBound(t *testing.T) {
	c := newLRUCache(256, 1000)
	big := func(n int) *response { return &response{body: make([]byte, n), complete: true} }
	c.put("a", big(400))
	c.put("b", big(400))
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2 (under both bounds)", c.len())
	}
	c.put("c", big(400)) // ~1203 bytes: evict "a", the LRU entry
	if _, ok := c.get("a"); ok {
		t.Fatal("byte bound did not evict the oldest entry")
	}
	if _, ok := c.get("b"); !ok {
		t.Fatal("byte bound over-evicted")
	}
	if got := c.totalBytes(); got > 1000 {
		t.Fatalf("totalBytes = %d, want ≤ 1000", got)
	}

	// An entry bigger than the whole budget never becomes resident — the
	// smaller residents survive. (The old behavior admitted it and then
	// drained the LRU front until the budget held, purging every hot
	// entry including the oversized one.)
	c.put("huge", big(5000))
	if c.len() != 2 {
		t.Fatalf("len = %d after over-budget put, want 2 (residents kept)", c.len())
	}
	if _, ok := c.get("b"); !ok {
		t.Fatal("oversized put evicted resident b")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("oversized put evicted resident c")
	}
	if _, ok := c.get("huge"); ok {
		t.Fatal("oversized entry became resident")
	}
}

// TestLRUCacheOversizedDoesNotEmptyCache is the regression test for the
// eviction bug: one response exceeding maxBytes must leave every smaller
// resident in place and keep the byte accounting intact.
func TestLRUCacheOversizedDoesNotEmptyCache(t *testing.T) {
	c := newLRUCache(256, 1000)
	body := func(n int) *response { return &response{body: make([]byte, n), complete: true} }
	c.put("hot1", body(300))
	c.put("hot2", body(300))
	before := c.totalBytes()

	c.put("manifest", body(4000))
	if c.len() != 2 {
		t.Fatalf("oversized put emptied the cache: len = %d, want 2", c.len())
	}
	if got := c.totalBytes(); got != before {
		t.Fatalf("totalBytes = %d, want %d (unchanged)", got, before)
	}
	for _, k := range []string{"hot1", "hot2"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("resident %q lost to an oversized put", k)
		}
	}
}

// TestLRUCacheOversizedReplacesStaleResident: if a smaller response was
// resident under the key and a re-put grows past the budget, the stale
// resident is dropped (a later get must fall through to the stored
// copy, not serve the outdated body).
func TestLRUCacheOversizedReplacesStaleResident(t *testing.T) {
	c := newLRUCache(256, 1000)
	c.put("k", &response{body: []byte("small"), complete: true})
	c.put("other", &response{body: []byte("x"), complete: true})
	c.put("k", &response{body: make([]byte, 4000), complete: true})
	if _, ok := c.get("k"); ok {
		t.Fatal("stale small resident still served under the grown key")
	}
	if _, ok := c.get("other"); !ok {
		t.Fatal("unrelated resident evicted")
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}

// TestLRUCacheReplaceAdjustsBytes: re-putting a key swaps its byte
// accounting, it does not leak the old size.
func TestLRUCacheReplaceAdjustsBytes(t *testing.T) {
	c := newLRUCache(4, unbounded)
	c.put("k", &response{body: make([]byte, 100)})
	c.put("k", &response{body: make([]byte, 10)})
	if got := c.totalBytes(); got != int64(len("k"))+10 {
		t.Fatalf("totalBytes = %d, want %d", got, len("k")+10)
	}
}

func TestFlightGroupCoalescesConcurrentCalls(t *testing.T) {
	g := newFlightGroup()
	gate := make(chan struct{})
	started := make(chan struct{})
	var solves int

	const followers = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	sharedCount := 0

	// Leader: blocks in fn until the gate opens.
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, shared, err := g.do(context.Background(), "k", func() (*response, error) {
			close(started)
			<-gate
			solves++
			return &response{body: []byte("r")}, nil
		})
		if err != nil || shared || string(resp.body) != "r" {
			t.Errorf("leader: resp=%v shared=%v err=%v", resp, shared, err)
		}
	}()
	<-started

	before := metricCoalesced.Value()
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, shared, err := g.do(context.Background(), "k", func() (*response, error) {
				t.Error("follower executed fn")
				return nil, nil
			})
			if err != nil || string(resp.body) != "r" {
				t.Errorf("follower: resp=%v err=%v", resp, err)
			}
			if shared {
				mu.Lock()
				sharedCount++
				mu.Unlock()
			}
		}()
	}
	// Wait for every follower to attach before releasing the leader.
	waitFor(t, func() bool { return metricCoalesced.Value()-before >= followers },
		"followers never attached")
	close(gate)
	wg.Wait()
	if solves != 1 {
		t.Fatalf("fn ran %d times, want 1", solves)
	}
	if sharedCount != followers {
		t.Fatalf("%d of %d followers reported shared", sharedCount, followers)
	}
}

func TestFlightGroupFollowerContextCancel(t *testing.T) {
	g := newFlightGroup()
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = g.do(context.Background(), "k", func() (*response, error) {
			close(started)
			<-gate
			return &response{}, nil
		})
	}()
	<-started
	defer close(gate)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, err := g.do(ctx, "k", func() (*response, error) { return &response{}, nil })
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("shared=%v err=%v, want shared follower with context.Canceled", shared, err)
	}
}

func TestFlightGroupSequentialCallsDoNotShare(t *testing.T) {
	g := newFlightGroup()
	for i := 0; i < 2; i++ {
		resp, shared, err := g.do(context.Background(), "k", func() (*response, error) {
			return &response{body: []byte(fmt.Sprint(i))}, nil
		})
		if err != nil || shared {
			t.Fatalf("call %d: shared=%v err=%v", i, shared, err)
		}
		if string(resp.body) != fmt.Sprint(i) {
			t.Fatalf("call %d returned stale result %q", i, resp.body)
		}
	}
}
