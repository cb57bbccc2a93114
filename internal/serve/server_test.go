package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// waitFor polls cond once a millisecond for up to 10s — the test-side
// synchronization primitive for "the server has reached state X".
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// startServer runs a real Server on a loopback listener (httptest's
// server wraps its own http.Server, which would bypass Shutdown).
func startServer(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := s.Serve(ln); err != nil && err != http.ErrServerClosed {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		<-done
	})
	return "http://" + ln.Addr().String()
}

// get fetches url and returns status, the X-Cache header and the body.
func get(t *testing.T, url string) (int, string, []byte) {
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
	return resp.StatusCode, resp.Header.Get("X-Cache"), body
}

// decodeResponse parses a response body as a run manifest (schema
// checked) and returns it with its serve-table request record.
func decodeResponse(t *testing.T, body []byte) (*obs.Manifest, map[string]interface{}) {
	t.Helper()
	m, err := obs.DecodeManifest(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("response is not a valid run manifest: %v\n%s", err, body)
	}
	tab := m.Table("serve")
	if tab == nil {
		t.Fatalf("response has no serve table:\n%s", body)
	}
	rows, ok := tab.Rows.([]interface{})
	if !ok || len(rows) != 1 {
		t.Fatalf("serve table rows = %#v, want one row", tab.Rows)
	}
	row, ok := rows[0].(map[string]interface{})
	if !ok {
		t.Fatalf("serve row = %#v", rows[0])
	}
	return m, row
}

// TestQueryAnswersAndCaches covers the basic read path: a valid query
// answers 200 with a schema-stamped manifest, a repeat answers from the
// cache byte-identically without re-solving.
func TestQueryAnswersAndCaches(t *testing.T) {
	s := New(Config{})
	base := startServer(t, s)
	url := base + "/v1/bisection?network=wn&n=8"

	solvesBefore := metricSolves.Value()
	status, source, body := get(t, url)
	if status != http.StatusOK || source != "miss" {
		t.Fatalf("first: status=%d source=%q", status, source)
	}
	m, row := decodeResponse(t, body)
	if m.Command != "butterflyd" {
		t.Fatalf("command = %q", m.Command)
	}
	if tab := m.Table("bisection.wn"); tab == nil {
		t.Fatalf("missing bisection.wn table:\n%s", body)
	}
	if row["complete"] != true {
		t.Fatalf("serve row = %v, want complete=true", row)
	}

	status, source, body2 := get(t, url)
	if status != http.StatusOK || source != "hit" {
		t.Fatalf("second: status=%d source=%q", status, source)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cached response differs from the original")
	}
	if got := metricSolves.Value() - solvesBefore; got != 1 {
		t.Fatalf("%d solves for two identical queries, want 1", got)
	}

	// Spelling differences canonicalize to the same cache entry.
	status, source, _ = get(t, base+"/v1/bisection?n=8&network=wn&exact-nodes=32")
	if status != http.StatusOK || source != "hit" {
		t.Fatalf("canonicalized repeat: status=%d source=%q", status, source)
	}
}

// TestCoalescingSingleSolve is the acceptance test for request
// coalescing: N concurrent identical queries trigger exactly one
// underlying solve, deterministically — the leader is held at the solve
// hook until every follower has attached.
func TestCoalescingSingleSolve(t *testing.T) {
	const followers = 5
	gate := make(chan struct{})
	started := make(chan string, 1)
	s := New(Config{MaxInflight: 2})
	s.solveHook = func(key string) {
		started <- key
		<-gate
	}
	base := startServer(t, s)
	url := base + "/v1/bisection?network=bn&n=4"

	solvesBefore := metricSolves.Value()
	coalescedBefore := metricCoalesced.Value()

	type outcome struct {
		status int
		source string
		body   []byte
	}
	results := make(chan outcome, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, src, body := get(t, url)
		results <- outcome{st, src, body}
	}()
	<-started // the leader is in flight, holding its solve slot

	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, src, body := get(t, url)
			results <- outcome{st, src, body}
		}()
	}
	waitFor(t, func() bool { return metricCoalesced.Value()-coalescedBefore >= followers },
		"followers never attached to the in-flight solve")
	close(gate)
	wg.Wait()
	close(results)

	var bodies [][]byte
	sources := map[string]int{}
	for o := range results {
		if o.status != http.StatusOK {
			t.Fatalf("status %d: %s", o.status, o.body)
		}
		sources[o.source]++
		bodies = append(bodies, o.body)
	}
	if sources["miss"] != 1 || sources["coalesced"] != followers {
		t.Fatalf("sources = %v, want 1 miss + %d coalesced", sources, followers)
	}
	for _, b := range bodies[1:] {
		if !bytes.Equal(bodies[0], b) {
			t.Fatal("coalesced responses differ")
		}
	}
	if got := metricSolves.Value() - solvesBefore; got != 1 {
		t.Fatalf("%d solves for %d concurrent identical queries, want exactly 1", got, followers+1)
	}
}

// TestDeadlineReturnsBestSoFarNonExact: a solve that cannot finish inside
// its budget still answers 200, with the exact row marked incomplete and
// the response excluded from the cache.
func TestDeadlineReturnsBestSoFarNonExact(t *testing.T) {
	s := New(Config{})
	base := startServer(t, s)
	// B16 has 80 nodes: the exact branch-and-bound cannot possibly finish
	// in 150ms, so the row degrades to the best incumbent, marked
	// non-exact — the served twin of the CLI's -timeout behavior.
	url := base + "/v1/bisection?network=bn&n=16&exact-nodes=128&timeout=150ms"

	start := time.Now()
	status, source, body := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("deadline-bounded solve took %v", took)
	}
	_, row := decodeResponse(t, body)
	if row["complete"] != false {
		t.Fatalf("serve row = %v, want complete=false", row)
	}
	var doc struct {
		Tables []struct {
			Name string `json:"name"`
			Rows []struct {
				Exact         int  `json:"exact"`
				ExactComplete bool `json:"exact_complete"`
			} `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tab := range doc.Tables {
		if tab.Name != "bisection.bn" {
			continue
		}
		found = true
		if len(tab.Rows) != 1 || tab.Rows[0].ExactComplete {
			t.Fatalf("rows = %+v, want one non-exact row", tab.Rows)
		}
		if tab.Rows[0].Exact <= 0 {
			t.Fatalf("best-so-far incumbent = %d, want a feasible upper bound", tab.Rows[0].Exact)
		}
	}
	if !found {
		t.Fatalf("no bisection.bn table:\n%s", body)
	}

	// Truncated answers must not be cached: a repeat is a fresh miss.
	if _, source2, _ := get(t, url); source2 == "hit" {
		t.Fatal("budget-truncated response was served from cache")
	}
	_ = source
}

// TestShutdownDrainsInflightSolve is the acceptance test for graceful
// drain: Shutdown while a solve is in flight signals it to wind down, the
// handler still writes a best-so-far non-exact response, and Shutdown
// returns once it is written.
func TestShutdownDrainsInflightSolve(t *testing.T) {
	started := make(chan string, 1)
	s := New(Config{})
	s.solveHook = func(key string) { started <- key }
	base := startServer(t, s)
	// Without the drain, this exact solve would run for its full 30s
	// budget; the test passing quickly is itself the drain working.
	url := base + "/v1/bisection?network=bn&n=16&exact-nodes=128&timeout=30s"

	type outcome struct {
		status int
		body   []byte
	}
	done := make(chan outcome, 1)
	go func() {
		st, _, body := get(t, url)
		done <- outcome{st, body}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	shutdownStart := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	if took := time.Since(shutdownStart); took > 10*time.Second {
		t.Fatalf("drain took %v", took)
	}

	o := <-done
	if o.status != http.StatusOK {
		t.Fatalf("drained request: status %d: %s", o.status, o.body)
	}
	_, row := decodeResponse(t, o.body)
	if row["complete"] != false {
		t.Fatalf("drained response row = %v, want complete=false (best-so-far, non-exact)", row)
	}
}

// TestOverloadAnswers429And503: with one solve slot and a one-deep queue,
// a held solve plus a queued request forces the third into 429 (queue
// full) and resolves the queued one into 503 (queue wait expired).
func TestOverloadAnswers429And503(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 1)
	s := New(Config{MaxInflight: 1, MaxQueue: 1, QueueWait: 300 * time.Millisecond})
	s.solveHook = func(key string) {
		started <- key
		<-gate
	}
	base := startServer(t, s)

	// Leader occupies the only solve slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(t, base+"/v1/bisection?network=bn&n=4")
	}()
	<-started

	// A *different* query queues (identical ones would coalesce).
	queuedStatus := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, _, _ := get(t, base+"/v1/bisection?network=bn&n=8")
		queuedStatus <- st
	}()
	waitFor(t, func() bool { return s.queued.Load() == 1 }, "second request never queued")

	// A third distinct query finds the queue full: immediate 429.
	st, _, body := get(t, base+"/v1/bisection?network=wn&n=4")
	if st != http.StatusTooManyRequests {
		t.Fatalf("queue-full status = %d: %s", st, body)
	}

	// The queued request times out of the queue: 503.
	if st := <-queuedStatus; st != http.StatusServiceUnavailable {
		t.Fatalf("queue-wait status = %d", st)
	}
	close(gate)
	wg.Wait()
}

// TestRequestValidation rejects malformed queries with 400 and names the
// offending parameter; wrong methods get 405.
func TestRequestValidation(t *testing.T) {
	s := New(Config{})
	base := startServer(t, s)
	cases := []struct {
		url  string
		want int
	}{
		{"/v1/bisection?network=bn&n=7", http.StatusBadRequest},         // not a power of two
		{"/v1/bisection?network=zz&n=8", http.StatusBadRequest},         // unknown network
		{"/v1/bisection", http.StatusBadRequest},                        // n required
		{"/v1/bisection?network=bn&n=8&bogus=1", http.StatusBadRequest}, // unknown parameter
		{"/v1/bisection?network=bn&n=8&timeout=forever", http.StatusBadRequest},
		{"/v1/expansion?kind=xx&n=16", http.StatusBadRequest},
		{"/v1/expansion?kind=ne_wn&n=8", http.StatusBadRequest},      // too small for witnesses
		{"/v1/expansion?kind=ee_wn&n=64&d=9", http.StatusBadRequest}, // d out of range
		{"/v1/routing?n=64&trials=0", http.StatusBadRequest},
		{"/v1/routing?n=64&kind=sorted", http.StatusBadRequest},
		{"/v1/report?quick=perhaps", http.StatusBadRequest},
	}
	for _, c := range cases {
		status, _, body := get(t, base+c.url)
		if status != c.want {
			t.Errorf("%s: status = %d, want %d (%s)", c.url, status, c.want, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body = %s", c.url, body)
		}
	}
	resp, err := http.Post(base+"/v1/bisection?network=bn&n=8", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

// TestEndpointsRoundTrip exercises each endpoint once with a cheap query
// and checks the expected manifest table arrives schema-valid.
func TestEndpointsRoundTrip(t *testing.T) {
	s := New(Config{})
	base := startServer(t, s)
	cases := []struct {
		url   string
		table string
	}{
		{"/v1/bisection?network=bn&n=8", "bisection.bn"},
		{"/v1/bisection?network=ccc&n=8", "bisection.ccc"},
		{"/v1/expansion?kind=ee_bn&n=8&d=1&exact-nodes=64", "expansion.ee_bn"},
		{"/v1/routing?n=8&trials=3&seed=7", "routing.random"},
		{"/v1/routing?n=8&trials=3&kind=permutation", "routing.permutation"},
	}
	for _, c := range cases {
		status, _, body := get(t, base+c.url)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.url, status, body)
		}
		m, row := decodeResponse(t, body)
		if m.Table(c.table) == nil {
			t.Errorf("%s: missing table %s", c.url, c.table)
		}
		if row["complete"] != true {
			t.Errorf("%s: not complete: %v", c.url, row)
		}
	}
}

// TestBisectionExactNodesZero: exact-nodes=0 disables the exact solve, as
// it does for /v1/expansion, while the default budget of 32 certifies W8.
func TestBisectionExactNodesZero(t *testing.T) {
	s := New(Config{})
	base := startServer(t, s)
	for _, c := range []struct {
		query     string
		exact     float64
		certified bool
	}{
		{"network=wn&n=8&exact-nodes=0", -1, false},
		{"network=wn&n=8", 8, true},
	} {
		status, _, body := get(t, base+"/v1/bisection?"+c.query)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.query, status, body)
		}
		m, _ := decodeResponse(t, body)
		tab := m.Table("bisection.wn")
		if tab == nil {
			t.Fatalf("%s: missing bisection.wn table:\n%s", c.query, body)
		}
		rows, _ := tab.Rows.([]interface{})
		if len(rows) != 1 {
			t.Fatalf("%s: bisection.wn rows = %#v, want one", c.query, tab.Rows)
		}
		row, _ := rows[0].(map[string]interface{})
		if row["exact"] != c.exact || row["exact_complete"] != c.certified {
			t.Errorf("%s: exact %v (complete %v), want %v (complete %v)",
				c.query, row["exact"], row["exact_complete"], c.exact, c.certified)
		}
	}
}

// TestHealthzFlipsOnDrain: 200 while serving, 503 once draining.
func TestHealthzFlipsOnDrain(t *testing.T) {
	s := New(Config{})
	base := startServer(t, s)
	status, _, body := get(t, base+"/healthz")
	if status != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", status, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The listener is closed now; ask the handler directly.
	if s.draining.Load() != true {
		t.Fatal("draining flag not set after Shutdown")
	}
}

// TestMetricsEndpointServesRegistry: /debug/metrics returns the live JSON
// snapshot including the serve-layer series.
func TestMetricsEndpointServesRegistry(t *testing.T) {
	s := New(Config{})
	base := startServer(t, s)
	get(t, base+"/v1/bisection?network=bn&n=4")
	status, _, body := get(t, base+"/debug/metrics")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var snap map[string]interface{}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	for _, name := range []string{"serve.requests.ok", "serve.solves", "serve.cache_misses", "serve.latency_us.bisection", "runtime.goroutines", "runtime.heap_bytes"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("metrics snapshot missing %s", name)
		}
	}
}

// outcomeCount reads one serve.requests.<outcome> counter.
func outcomeCount(outcome string) int64 { return requestOutcomes[outcome].Value() }

// TestOutcomesCountedAfterValidation is the regression test for the old
// serve.requests counter firing before method/parse validation: a 400
// must increment serve.requests.400 and leave the ok counter alone, so
// rejected garbage is distinguishable from served load.
func TestOutcomesCountedAfterValidation(t *testing.T) {
	s := New(Config{})
	base := startServer(t, s)

	okBefore, badBefore := outcomeCount("ok"), outcomeCount("400")
	status, _, _ := get(t, base+"/v1/bisection?network=bn&n=7")
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
	// The outcome is counted in the handler's deferred block, which can
	// run after the client sees the response; poll.
	waitFor(t, func() bool { return outcomeCount("400") == badBefore+1 },
		"400 outcome never counted")
	if got := outcomeCount("ok"); got != okBefore {
		t.Fatalf("ok counter moved on a rejected request: %d -> %d", okBefore, got)
	}

	// A served solve counts as ok; its cached repeat as cache_hit — and
	// neither touches the error outcomes.
	hitBefore := outcomeCount("cache_hit")
	if status, _, _ := get(t, base+"/v1/bisection?network=bn&n=4"); status != http.StatusOK {
		t.Fatalf("valid query status = %d", status)
	}
	waitFor(t, func() bool { return outcomeCount("ok") == okBefore+1 }, "ok outcome never counted")
	if status, source, _ := get(t, base+"/v1/bisection?network=bn&n=4"); status != http.StatusOK || source != "hit" {
		t.Fatalf("repeat: status=%d source=%q", status, source)
	}
	waitFor(t, func() bool { return outcomeCount("cache_hit") == hitBefore+1 }, "cache_hit outcome never counted")
	if got := outcomeCount("400"); got != badBefore+1 {
		t.Fatalf("400 counter moved on served requests: %d -> %d", badBefore+1, got)
	}
}

// TestRequestID: every response carries X-Request-ID — generated when
// the client sent none, echoed when it sent a well-formed one, replaced
// when it sent garbage.
func TestRequestID(t *testing.T) {
	s := New(Config{})
	base := startServer(t, s)
	url := base + "/v1/bisection?network=bn&n=4"

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	generated := resp.Header.Get("X-Request-ID")
	if generated == "" {
		t.Fatal("no X-Request-ID on a plain request")
	}

	probe := func(sent string) string {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", sent)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-ID")
	}
	if got := probe("bench-probe-123"); got != "bench-probe-123" {
		t.Fatalf("well-formed client ID not echoed: got %q", got)
	}
	if got := probe("evil id with spaces"); got == "" || strings.ContainsAny(got, " \n") {
		t.Fatalf("malformed client ID not replaced: got %q", got)
	}
	// Errors carry IDs too — the 400 line in the access log must be
	// joinable to the client's record.
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/bisection?network=bn&n=7", nil)
	req.Header.Set("X-Request-ID", "bad-req-7")
	errResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	errResp.Body.Close()
	if got := errResp.Header.Get("X-Request-ID"); got != "bad-req-7" {
		t.Fatalf("error response X-Request-ID = %q, want bad-req-7", got)
	}
}

// TestStatusz: the status endpoint answers uptime, resolved config,
// cache occupancy, outcome counters and per-endpoint µs quantiles.
func TestStatusz(t *testing.T) {
	s := New(Config{MaxInflight: 3})
	base := startServer(t, s)
	if status, _, _ := get(t, base+"/v1/bisection?network=bn&n=4"); status != http.StatusOK {
		t.Fatal("warm-up query failed")
	}
	waitFor(t, func() bool { return s.latencies["bisection"].Snapshot().Count >= 1 },
		"latency histogram never observed")

	status, _, body := get(t, base+"/debug/statusz")
	if status != http.StatusOK {
		t.Fatalf("statusz status = %d", status)
	}
	var doc struct {
		Command string  `json:"command"`
		UptimeS float64 `json:"uptime_s"`
		Config  struct {
			MaxInflight  int   `json:"max_inflight"`
			CacheEntries int   `json:"cache_entries"`
			CacheBytes   int64 `json:"cache_bytes"`
		} `json:"config"`
		Cache struct {
			Entries int64 `json:"entries"`
			Bytes   int64 `json:"bytes"`
		} `json:"cache"`
		Outcomes  map[string]int64 `json:"request_outcomes"`
		Endpoints map[string]struct {
			Count int64   `json:"count"`
			P50US float64 `json:"p50_us"`
			P99US float64 `json:"p99_us"`
			MaxUS int64   `json:"max_us"`
		} `json:"endpoints"`
		Runtime map[string]int64 `json:"runtime"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("statusz not JSON: %v\n%s", err, body)
	}
	if doc.Command != "butterflyd" || doc.UptimeS < 0 {
		t.Fatalf("command=%q uptime=%v", doc.Command, doc.UptimeS)
	}
	if doc.Config.MaxInflight != 3 || doc.Config.CacheEntries != 256 {
		t.Fatalf("config = %+v, want resolved defaults", doc.Config)
	}
	if doc.Cache.Entries < 1 || doc.Cache.Bytes <= 0 {
		t.Fatalf("cache occupancy = %+v, want the warm-up entry", doc.Cache)
	}
	ep, ok := doc.Endpoints["bisection"]
	if !ok || ep.Count < 1 {
		t.Fatalf("endpoints = %+v, want bisection with count ≥ 1", doc.Endpoints)
	}
	if ep.P50US <= 0 || ep.P99US < ep.P50US || float64(ep.MaxUS) < ep.P99US {
		t.Fatalf("quantiles not sane: %+v", ep)
	}
	if doc.Runtime["runtime.goroutines"] <= 0 || doc.Runtime["runtime.heap_bytes"] <= 0 {
		t.Fatalf("runtime gauges = %+v", doc.Runtime)
	}
	if _, ok := doc.Outcomes["ok"]; !ok {
		t.Fatalf("outcomes = %+v, want an ok counter", doc.Outcomes)
	}
}

// TestAccessLog: with Config.AccessLog set, every request (rejections
// included) writes one JSONL record carrying its ID, outcome, µs latency
// and canonical key.
func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	s := New(Config{AccessLog: &buf})
	base := startServer(t, s)

	if status, _, _ := get(t, base+"/v1/bisection?network=bn&n=4"); status != http.StatusOK {
		t.Fatal("solve query failed")
	}
	if status, source, _ := get(t, base+"/v1/bisection?network=bn&n=4"); status != http.StatusOK || source != "hit" {
		t.Fatal("cache query failed")
	}
	if status, _, _ := get(t, base+"/v1/bisection?network=bn&n=7"); status != http.StatusBadRequest {
		t.Fatal("want a 400")
	}

	var recs []accessRecord
	waitFor(t, func() bool {
		recs = recs[:0]
		for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var rec accessRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("access log line not JSON: %v\n%s", err, line)
			}
			recs = append(recs, rec)
		}
		return len(recs) == 3
	}, "access log never reached 3 records")

	byOutcome := map[string]accessRecord{}
	for _, rec := range recs {
		if rec.ID == "" || rec.Time == "" || rec.Endpoint != "bisection" || rec.LatencyUS < 0 {
			t.Fatalf("bad record: %+v", rec)
		}
		byOutcome[rec.Outcome] = rec
	}
	okRec, hitRec, badRec := byOutcome["ok"], byOutcome["cache_hit"], byOutcome["400"]
	if okRec.Status != 200 || !okRec.Complete || okRec.Bytes <= 0 || !strings.HasPrefix(okRec.Key, "bisection?") {
		t.Fatalf("ok record: %+v", okRec)
	}
	if hitRec.Status != 200 || hitRec.Source != "hit" || hitRec.Key != okRec.Key {
		t.Fatalf("cache_hit record: %+v", hitRec)
	}
	if badRec.Status != 400 || badRec.Key != "" {
		t.Fatalf("400 record: %+v", badRec)
	}
	if okRec.ID == hitRec.ID || okRec.ID == badRec.ID {
		t.Fatalf("request IDs not unique: %q %q %q", okRec.ID, hitRec.ID, badRec.ID)
	}
	if err := s.AccessLogErr(); err != nil {
		t.Fatalf("access log error: %v", err)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the access logger writes
// from handler goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}
