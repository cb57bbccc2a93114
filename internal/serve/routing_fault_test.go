package serve

import (
	"io"
	"net/http"
	"testing"
	"time"
)

// getWithHeaders fetches url and returns the status, the full header set
// and the body — the Retry-After assertions need more than X-Cache.
func getWithHeaders(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestRoutingFaultQuery: a drop-rate sweep answers one manifest with a
// routing.faults table of one row per rate, caches under a canonical key
// (parameter order and explicit defaults see through to the same entry),
// and reports the degradation in the stats.
func TestRoutingFaultQuery(t *testing.T) {
	s := New(Config{})
	base := startServer(t, s)
	url := base + "/v1/routing?n=8&trials=3&seed=7&drop=0,0.1&retransmits=4"

	status, source, body := get(t, url)
	if status != http.StatusOK || source != "miss" {
		t.Fatalf("first: status=%d source=%q: %s", status, source, body)
	}
	m, row := decodeResponse(t, body)
	tab := m.Table("routing.faults")
	if tab == nil {
		t.Fatalf("missing routing.faults table:\n%s", body)
	}
	rows, ok := tab.Rows.([]interface{})
	if !ok || len(rows) != 2 {
		t.Fatalf("routing.faults rows = %#v, want 2 (one per drop rate)", tab.Rows)
	}
	healthy := rows[0].(map[string]interface{})
	lossy := rows[1].(map[string]interface{})
	if healthy["drop_prob"] != nil {
		t.Errorf("healthy row has drop_prob %v, want omitted", healthy["drop_prob"])
	}
	if lossy["drop_prob"] != 0.1 {
		t.Errorf("lossy row drop_prob = %v, want 0.1", lossy["drop_prob"])
	}
	hs := healthy["stats"].(map[string]interface{})
	ls := lossy["stats"].(map[string]interface{})
	if hs["delivered_rate"] != 1.0 {
		t.Errorf("healthy delivered_rate = %v, want 1", hs["delivered_rate"])
	}
	if lr, ok := ls["delivered_rate"].(float64); !ok || lr >= 1 {
		t.Errorf("lossy delivered_rate = %v, want < 1 with a bounded budget", ls["delivered_rate"])
	}
	if row["complete"] != true {
		t.Errorf("serve row = %v, want complete=true", row)
	}

	// Identical query: cache hit. Reordered spelling with explicit
	// defaults: the canonical key sees through it.
	if status, source, _ := get(t, url); status != http.StatusOK || source != "hit" {
		t.Fatalf("repeat: status=%d source=%q", status, source)
	}
	reordered := base + "/v1/routing?drop=0,0.1&seed=7&trials=3&n=8&retransmits=4&switching=sf&dead=0&kind=random"
	if status, source, _ := get(t, reordered); status != http.StatusOK || source != "hit" {
		t.Fatalf("canonicalized repeat: status=%d source=%q", status, source)
	}
}

// TestRoutingAdversarialKinds: hotspot and bitreversal answer their own
// tables; cut-through switching and dead links round-trip too.
func TestRoutingAdversarialKinds(t *testing.T) {
	s := New(Config{})
	base := startServer(t, s)
	for _, c := range []struct {
		url   string
		table string
	}{
		{"/v1/routing?n=8&trials=2&kind=hotspot", "routing.hotspot"},
		{"/v1/routing?n=8&trials=2&kind=bitreversal", "routing.bitreversal"},
		{"/v1/routing?n=8&trials=2&switching=ct", "routing.faults"},
		{"/v1/routing?n=8&trials=2&dead=0.05&kind=permutation", "routing.faults"},
	} {
		status, _, body := get(t, base+c.url)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.url, status, body)
		}
		m, _ := decodeResponse(t, body)
		if m.Table(c.table) == nil {
			t.Errorf("%s: missing table %s", c.url, c.table)
		}
	}
}

// TestRoutingExhausted422: a fault intensity under which every trial
// exhausts the step limit answers a clean 422 — the failure mode that
// used to panic the daemon — and leaves the server serving.
func TestRoutingExhausted422(t *testing.T) {
	s := New(Config{})
	base := startServer(t, s)
	status, _, body := get(t, base+"/v1/routing?n=8&trials=2&drop=0.999")
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", status, body)
	}
	// The daemon survives and still answers healthy queries.
	if status, _, body := get(t, base+"/v1/routing?n=8&trials=2"); status != http.StatusOK {
		t.Fatalf("follow-up healthy query: status %d: %s", status, body)
	}
}

// TestRoutingFaultValidation rejects out-of-range fault parameters with
// 400 before any solve runs.
func TestRoutingFaultValidation(t *testing.T) {
	s := New(Config{})
	base := startServer(t, s)
	for _, url := range []string{
		"/v1/routing?n=8&drop=1",                                 // probability must be < 1
		"/v1/routing?n=8&drop=-0.1",                              // negative probability
		"/v1/routing?n=8&drop=0.1,lots",                          // malformed list
		"/v1/routing?n=8&dead=2",                                 // dead-link probability out of range
		"/v1/routing?n=8&retransmits=-1",                         // negative budget
		"/v1/routing?n=8&switching=warp",                         // unknown discipline
		"/v1/routing?n=8&kind=wrapped",                           // no Wn kind: routing runs on Bn
		"/v1/routing?n=8&drop=0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", // sweep too long
	} {
		status, _, body := get(t, base+url)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", url, status, body)
		}
	}
}

// TestRetryAfterDerivedFromQueueWait: the backoff hint follows the
// configured admission window instead of a hard-coded 1s — one
// queue-wait for a full queue, twice that for a saturated or draining
// server.
func TestRetryAfterDerivedFromQueueWait(t *testing.T) {
	s := New(Config{QueueWait: 1500 * time.Millisecond})
	if got := s.retryAfterSeconds(errQueueFull); got != 2 {
		t.Errorf("queue-full Retry-After = %d, want ceil(1.5) = 2", got)
	}
	if got := s.retryAfterSeconds(errQueueWait); got != 4 {
		t.Errorf("queue-wait Retry-After = %d, want 2×2 = 4", got)
	}
	if got := s.retryAfterSeconds(errDraining); got != 4 {
		t.Errorf("draining Retry-After = %d, want 2×2 = 4", got)
	}

	// Sub-second waits still hint at least one second.
	fast := New(Config{QueueWait: 100 * time.Millisecond})
	if got := fast.retryAfterSeconds(errQueueFull); got != 1 {
		t.Errorf("fast queue-full Retry-After = %d, want 1", got)
	}
	if got := fast.retryAfterSeconds(errQueueWait); got != 2 {
		t.Errorf("fast queue-wait Retry-After = %d, want 2", got)
	}
}

// TestRetryAfterHeaderEndToEnd drives a real overload and reads the
// derived header off the wire: 429 carries the queue-wait, the queue-wait
// 503 carries twice it.
func TestRetryAfterHeaderEndToEnd(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 1)
	s := New(Config{MaxInflight: 1, MaxQueue: 1, QueueWait: 1200 * time.Millisecond})
	s.solveHook = func(key string) {
		started <- key
		<-gate
	}
	base := startServer(t, s)
	defer close(gate)

	go func() {
		if resp, err := http.Get(base + "/v1/bisection?network=bn&n=4"); err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	// A distinct query fills the one queue slot.
	queued := make(chan http.Header, 1)
	go func() {
		resp, err := http.Get(base + "/v1/bisection?network=bn&n=8")
		if err != nil {
			queued <- http.Header{}
			return
		}
		resp.Body.Close()
		queued <- resp.Header
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 }, "second request never queued")

	// Queue full: 429 with Retry-After = ceil(1.2s) = 2.
	status, h, body := getWithHeaders(t, base+"/v1/bisection?network=wn&n=4")
	if status != http.StatusTooManyRequests {
		t.Fatalf("queue-full status = %d: %s", status, body)
	}
	if got := h.Get("Retry-After"); got != "2" {
		t.Errorf("429 Retry-After = %q, want 2", got)
	}

	// Queue wait expires: 503 with Retry-After = 2×2 = 4.
	if got := (<-queued).Get("Retry-After"); got != "4" {
		t.Errorf("503 Retry-After = %q, want 4", got)
	}
}
