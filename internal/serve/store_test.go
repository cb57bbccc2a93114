package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/store"
)

// rget drives one request through the server's handler directly (no
// listener): status, X-Cache source, body.
func rget(t *testing.T, s *Server, path string) (int, string, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes()
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// scrubTelemetry strips the per-run fields (elapsed_ms at every level,
// solver explored/pruned work counters, the requesting budget's
// deadline_ms) from a response body, the same scrub the golden manifest
// tests use — everything else must be byte-deterministic across runs.
func scrubTelemetry(t *testing.T, body []byte) []byte {
	t.Helper()
	var doc interface{}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	var walk func(v interface{})
	walk = func(v interface{}) {
		switch v := v.(type) {
		case map[string]interface{}:
			for _, f := range []string{"elapsed_ms", "explored", "pruned", "deadline_ms"} {
				delete(v, f)
			}
			for _, child := range v {
				walk(child)
			}
		case []interface{}:
			for _, child := range v {
				walk(child)
			}
		}
	}
	walk(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWarmStartAcrossRestart is the acceptance test for the persistent
// store: stop a daemon, start a fresh one on the same directory, and the
// first query for anything the old process solved answers from disk —
// byte-identical, no solver invoked.
func TestWarmStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const path = "/v1/bisection?network=wn&n=16"

	st1 := openStore(t, dir)
	s1 := New(Config{Store: st1})
	status, source, body1 := rget(t, s1, path)
	if status != http.StatusOK || source != "miss" {
		t.Fatalf("first process: status=%d source=%q", status, source)
	}
	shutdown(t, s1)
	if !st1.Has("bisection?network=wn&n=16&exact-nodes=32") {
		t.Fatal("the complete solve never reached the store")
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new store handle and server over the same dir.
	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Config{Store: st2})
	solvesBefore := metricSolves.Value()
	status, source, body2 := rget(t, s2, path)
	if status != http.StatusOK || source != "store-hit" {
		t.Fatalf("restarted process: status=%d source=%q", status, source)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("restarted response differs from the original:\n%s\nvs\n%s", body1, body2)
	}
	if got := metricSolves.Value() - solvesBefore; got != 0 {
		t.Fatalf("restarted process ran %d solves, want 0 (disk only)", got)
	}

	// The store-hit re-warmed the LRU: a repeat is a plain memory hit.
	if _, source, _ = rget(t, s2, path); source != "hit" {
		t.Fatalf("repeat after store-hit: source=%q, want hit", source)
	}
	shutdown(t, s2)
}

// TestCompleteSolveSurvivesCrash: a complete solve is in the store as
// soon as it is answered — before any eviction, drain or Close. A second
// Open of the directory while the first server still runs (what a
// restart after kill -9 sees) serves the same body as a store-hit.
func TestCompleteSolveSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	const path = "/v1/bisection?network=wn&n=16"
	st1 := openStore(t, dir)
	defer st1.Close()
	s1 := New(Config{Store: st1})
	status, source, body1 := rget(t, s1, path)
	if status != http.StatusOK || source != "miss" {
		t.Fatalf("first process: status=%d source=%q", status, source)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	stored, ok, err := st2.Get("bisection?network=wn&n=16&exact-nodes=32")
	if err != nil || !ok {
		t.Fatalf("second Open: ok=%v err=%v, want the solved body", ok, err)
	}
	if !bytes.Equal(stored, body1) {
		t.Fatalf("stored body differs from the served one:\n%s\nvs\n%s", stored, body1)
	}
	s2 := New(Config{Store: st2})
	if status, source, body2 := rget(t, s2, path); status != http.StatusOK || source != "store-hit" || !bytes.Equal(body2, body1) {
		t.Fatalf("after the crash: status=%d source=%q, identical=%v", status, source, bytes.Equal(body2, body1))
	}
}

// TestIncompleteResponsesNeverStored: a budget-truncated answer is barred
// from the store exactly as from the cache — a truncated row on disk
// could mask the full answer forever.
func TestIncompleteResponsesNeverStored(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	s := New(Config{Store: st})
	// TestDeadlineReturnsBestSoFarNonExact's request: B16's exact search
	// cannot finish in 150 ms.
	status, _, body := rget(t, s, "/v1/bisection?network=bn&n=16&exact-nodes=128&timeout=150ms")
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	if _, row := decodeResponse(t, body); row["complete"] != false {
		t.Fatalf("serve row = %v, want complete=false", row)
	}
	if st.Len() != 0 {
		t.Fatalf("store holds %d records, want 0", st.Len())
	}
	shutdown(t, s)
}

// TestStoreAppendErrors: a failed append never fails a live request —
// the answer is still served and cached — but it fails a precompute
// point, whose only job is to fill the store.
func TestStoreAppendErrors(t *testing.T) {
	st := openStore(t, t.TempDir())
	if err := st.Close(); err != nil { // every Put now fails
		t.Fatal(err)
	}
	s := New(Config{Store: st})
	const path = "/v1/bisection?network=wn&n=4"
	if status, source, _ := rget(t, s, path); status != http.StatusOK || source != "miss" {
		t.Fatalf("live solve: status=%d source=%q, want a served miss", status, source)
	}
	if _, source, _ := rget(t, s, path); source != "hit" {
		t.Fatalf("repeat: source=%q, want hit", source)
	}
	grid, err := ParseGrid("wn:3")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.Precompute(context.Background(), grid, nil); err == nil || res.Failed != 1 {
		t.Fatalf("precompute: %+v err=%v, want the point failed", res, err)
	}
}

// TestPrecomputeFillsStore: a batch fill solves every missing grid point
// once, a rerun skips them all, and a fresh server over the filled store
// answers the grid from disk with responses equivalent (modulo wall-clock
// telemetry) to a live solve.
func TestPrecomputeFillsStore(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	batch := New(Config{Store: st, MaxInflight: 2})

	grid, err := ParseGrid("wn:2-3,bn:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 3 {
		t.Fatalf("grid has %d points, want 3", len(grid))
	}
	res, err := batch.Precompute(context.Background(), grid, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved != 3 || res.Skipped != 0 || res.Failed != 0 {
		t.Fatalf("first fill: %+v, want 3 solved", res)
	}
	res, err = batch.Precompute(context.Background(), grid, t.Logf)
	if err != nil || res.Skipped != 3 || res.Solved != 0 {
		t.Fatalf("refill: %+v err=%v, want 3 skipped", res, err)
	}

	// A fresh server over the filled store serves the grid from disk.
	warm := New(Config{Store: st})
	solvesBefore := metricSolves.Value()
	status, source, body := rget(t, warm, "/v1/bisection?network=wn&n=8")
	if status != http.StatusOK || source != "store-hit" {
		t.Fatalf("precomputed query: status=%d source=%q", status, source)
	}
	if got := metricSolves.Value() - solvesBefore; got != 0 {
		t.Fatalf("precomputed query ran %d solves, want 0", got)
	}

	// And the stored body matches a live solve, telemetry scrubbed.
	cold := New(Config{})
	_, _, fresh := rget(t, cold, "/v1/bisection?network=wn&n=8")
	if got, want := scrubTelemetry(t, body), scrubTelemetry(t, fresh); !bytes.Equal(got, want) {
		t.Fatalf("precomputed body diverges from a live solve:\n%s\nvs\n%s", got, want)
	}
}

// TestPrecomputeRequiresStore: batch mode without -store is a config
// error, not a silent no-op.
func TestPrecomputeRequiresStore(t *testing.T) {
	s := New(Config{})
	if _, err := s.Precompute(context.Background(), []GridPoint{{Network: "bn", LogN: 2, ExactNodes: 32}}, nil); err == nil {
		t.Fatal("precompute without a store did not error")
	}
}

func TestParseGrid(t *testing.T) {
	grid, err := ParseGrid("bn:3-5, wn:2:0 ,ccc:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []GridPoint{
		{Network: "bn", LogN: 3, ExactNodes: 32},
		{Network: "bn", LogN: 4, ExactNodes: 32},
		{Network: "bn", LogN: 5, ExactNodes: 32},
		{Network: "wn", LogN: 2, ExactNodes: 0},
		{Network: "ccc", LogN: 3, ExactNodes: 32},
	}
	if !reflect.DeepEqual(grid, want) {
		t.Fatalf("grid = %+v\nwant %+v", grid, want)
	}

	bad := []string{
		"",                // empty
		"bn",              // no range
		"bn:5-3",          // inverted range
		"bn:0-2",          // below log range
		"bn:2-99",         // above log range
		"zz:2-3",          // unknown network
		"bn:2-3:abc",      // bad exact-nodes
		"bn:2-3:9999999",  // exact-nodes out of endpoint range
		"wn:1",            // n=2 below wn's minimum
		"bn:2-3,,bad:::x", // malformed entry
	}
	for _, spec := range bad {
		if _, err := ParseGrid(spec); err == nil {
			t.Errorf("ParseGrid(%q) accepted an invalid spec", spec)
		}
	}
}
