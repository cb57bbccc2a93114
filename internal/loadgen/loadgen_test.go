package loadgen_test

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestRequestSequenceDeterministic: identical (profile, seed) must
// produce identical request sequences — the property that makes two
// bench reports comparable — and different seeds must diverge on the
// stochastic profiles.
func TestRequestSequenceDeterministic(t *testing.T) {
	for _, p := range loadgen.Profiles() {
		a := loadgen.Requests(p, 42, 500)
		b := loadgen.Requests(p, 42, 500)
		if len(a) != 500 {
			t.Fatalf("%s: %d requests, want 500", p, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: sequence diverges at %d: %q vs %q", p, i, a[i], b[i])
			}
			if !strings.HasPrefix(a[i], "/v1/") {
				t.Fatalf("%s: request %q is not a /v1 path", p, a[i])
			}
		}
	}
	// Seeds shuffle the hit-heavy ordering and relabel the miss keys.
	for _, p := range []loadgen.Profile{loadgen.HitHeavy, loadgen.MissHeavy, loadgen.ZipfShapes} {
		a, b := loadgen.Requests(p, 1, 200), loadgen.Requests(p, 2, 200)
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: seeds 1 and 2 produced identical sequences", p)
		}
	}
}

// TestProfileShapes: each mix produces the structure its name promises.
func TestProfileShapes(t *testing.T) {
	// Miss-heavy: every request unique.
	miss := loadgen.Requests(loadgen.MissHeavy, 7, 1000)
	seen := make(map[string]bool, len(miss))
	for _, p := range miss {
		if seen[p] {
			t.Fatalf("miss-heavy repeats %q", p)
		}
		seen[p] = true
	}
	// Hit-heavy: a small pool, each element repeated many times.
	hit := loadgen.Requests(loadgen.HitHeavy, 7, 1000)
	pool := make(map[string]int)
	for _, p := range hit {
		pool[p]++
	}
	if len(pool) > 16 {
		t.Fatalf("hit-heavy pool has %d distinct queries, want a small pool", len(pool))
	}
	// Storm: runs of identical queries, distinct across bursts.
	storm := loadgen.Requests(loadgen.Storm, 7, 128)
	if storm[0] != storm[31] || storm[0] == storm[32] {
		t.Fatalf("storm bursts malformed: [0]=%q [31]=%q [32]=%q", storm[0], storm[31], storm[32])
	}
	// Zipf: the hottest shape dominates the tail shapes.
	zipf := loadgen.Requests(loadgen.ZipfShapes, 7, 2000)
	counts := make(map[string]int)
	for _, p := range zipf {
		counts[p]++
	}
	hot := counts["/v1/bisection?network=bn&n=8"]
	cold := counts["/v1/bisection?network=bn&n=2048"]
	if hot <= cold || hot < len(zipf)/10 {
		t.Fatalf("zipf skew missing: hot=%d cold=%d of %d", hot, cold, len(zipf))
	}
}

func TestParseSLOs(t *testing.T) {
	slos, err := loadgen.ParseSLOs("p99=50ms,errors=1%,p50=900us,achieved=90%,max=2s")
	if err != nil {
		t.Fatal(err)
	}
	if len(slos) != 5 {
		t.Fatalf("%d SLOs, want 5", len(slos))
	}
	if slos[0].Name != "p99" || slos[0].LatencyUS != 50000 {
		t.Fatalf("p99 = %+v", slos[0])
	}
	if slos[1].Name != "errors" || slos[1].Percent != 1 {
		t.Fatalf("errors = %+v", slos[1])
	}
	if slos[2].LatencyUS != 900 {
		t.Fatalf("p50 = %+v", slos[2])
	}
	for _, bad := range []string{"p99", "p99=", "p98=5ms", "errors=1", "p99=-3ms", "errors=200%"} {
		if _, err := loadgen.ParseSLOs(bad); err == nil {
			t.Errorf("ParseSLOs(%q) accepted", bad)
		}
	}
	if slos, err := loadgen.ParseSLOs(""); err != nil || slos != nil {
		t.Fatalf("empty spec: %v %v", slos, err)
	}
}

// startDaemon runs a real serve.Server on loopback for the end-to-end
// harness tests.
func startDaemon(t *testing.T) string {
	t.Helper()
	s := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return "http://" + ln.Addr().String()
}

// TestRunHitHeavyEndToEnd: a short hit-heavy run against a live server
// completes every planned request, records µs latencies with sane
// quantiles, sees cache hits, brackets the run with server metrics, and
// passes a loose SLO while failing an impossible one.
func TestRunHitHeavyEndToEnd(t *testing.T) {
	base := startDaemon(t)
	opt := loadgen.Options{
		BaseURL:  base,
		Profile:  loadgen.HitHeavy,
		Seed:     1,
		QPS:      200,
		Duration: 500 * time.Millisecond,
		Timeout:  10 * time.Second,
	}
	res, err := loadgen.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Planned != 100 || res.Completed != res.Planned {
		t.Fatalf("planned %d completed %d", res.Planned, res.Completed)
	}
	if res.AchievedQPS <= 0 {
		t.Fatalf("achieved qps = %g", res.AchievedQPS)
	}
	if res.Outcomes["cache_hit"] == 0 {
		t.Fatalf("hit-heavy run saw no cache hits: %v", res.Outcomes)
	}
	if res.ErrorRate() != 0 {
		t.Fatalf("error rate %g on a healthy run: %v", res.ErrorRate(), res.Outcomes)
	}
	if res.Overall.Count != int64(res.Completed) || res.Overall.Max <= 0 {
		t.Fatalf("overall histogram: %+v", res.Overall)
	}
	p50, p99 := res.Overall.Quantile(0.5), res.Overall.Quantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("quantiles p50=%g p99=%g", p50, p99)
	}
	if res.MetricsAfter == nil {
		t.Fatal("no server metrics scraped")
	}

	loose, _ := loadgen.ParseSLOs("p99=30s,errors=0%")
	if results := res.Evaluate(loose); !loadgen.AllPass(results) {
		t.Fatalf("loose SLOs failed: %+v", results)
	}
	impossible, _ := loadgen.ParseSLOs("max=1us")
	if results := res.Evaluate(impossible); loadgen.AllPass(results) {
		t.Fatalf("impossible SLO passed: %+v", results)
	}

	m := loadgen.BuildReport(opt, res, res.Evaluate(loose))
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := obs.DecodeManifest(&buf)
	if err != nil {
		t.Fatalf("report is not a valid run manifest: %v", err)
	}
	for _, table := range []string{"bench.config", "bench.qps", "bench.latency", "bench.outcomes", "bench.slo", "bench.server"} {
		if dec.Table(table) == nil {
			t.Errorf("report missing table %s", table)
		}
	}
	if dec.Command != "butterflybench" || dec.Seed != 1 {
		t.Fatalf("command=%q seed=%d", dec.Command, dec.Seed)
	}
}

// TestRunCountsTruncatedAnswers: a 200 the daemon cut short at the
// request's budget (serve row complete: false, header X-Complete: false)
// is the server's timeout outcome, and the harness must file it so and
// count it against the errors SLO, not as a served answer. A front handler
// turns every query into B16's exact bisection with a 50ms timeout=, far
// too short for that key.
func TestRunCountsTruncatedAnswers(t *testing.T) {
	s := serve.New(serve.Config{})
	slow, err := url.Parse("/v1/bisection?network=bn&n=16&exact-nodes=128&timeout=50ms")
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			r.URL.Path, r.URL.RawQuery = slow.Path, slow.RawQuery
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	res, err := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL:  front.URL,
		Profile:  loadgen.HitHeavy,
		Seed:     1,
		QPS:      20,
		Duration: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Planned || res.Outcomes["timeout"] != int64(res.Completed) {
		t.Fatalf("completed %d of %d, outcomes %v: want every answer filed as timeout", res.Completed, res.Planned, res.Outcomes)
	}
	if res.ErrorRate() != 1 {
		t.Fatalf("error rate %g, want 1: truncated answers count against the errors SLO", res.ErrorRate())
	}
	slo, _ := loadgen.ParseSLOs("errors=1%")
	if loadgen.AllPass(res.Evaluate(slo)) {
		t.Fatalf("errors SLO passed on a run of truncated answers: %v", res.Outcomes)
	}
}

// TestRunStormCoalesces: storm bursts fired open-loop against a slow
// path should produce coalesced outcomes — the singleflight behavior
// the profile exists to measure. (Each burst's queries are identical and
// the burst outruns its solve.)
func TestRunStormCoalesces(t *testing.T) {
	base := startDaemon(t)
	res, err := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL:  base,
		Profile:  loadgen.Storm,
		Seed:     3,
		QPS:      400,
		Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Planned {
		t.Fatalf("completed %d of %d", res.Completed, res.Planned)
	}
	coalesced := res.Outcomes["coalesced"] + res.Outcomes["cache_hit"]
	if coalesced == 0 {
		t.Fatalf("storm run produced no coalesced/hit outcomes: %v", res.Outcomes)
	}
}

// TestRunCancellation: cancelling mid-run stops dispatch but still
// returns a consistent result for what fired.
func TestRunCancellation(t *testing.T) {
	base := startDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	res, err := loadgen.Run(ctx, loadgen.Options{
		BaseURL:  base,
		Profile:  loadgen.HitHeavy,
		Seed:     1,
		QPS:      50,
		Duration: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed >= res.Planned {
		t.Fatalf("cancellation did not stop dispatch: %d of %d", res.Completed, res.Planned)
	}
	if int64(res.Completed) != res.Overall.Count {
		t.Fatalf("count mismatch: %d completed, %d observed", res.Completed, res.Overall.Count)
	}
}
