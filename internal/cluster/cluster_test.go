package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bitutil"
	"repro/internal/serve"
)

// simNet is the deterministic in-process network of the cluster tests: an
// http.RoundTripper that dispatches each request into the addressed
// peer's handler. Message loss comes from one seeded splitmix64 stream,
// two draws per exchange (request, then reply), serialized under the
// lock, so a fixed seed and a serial caller replay the same losses. A
// lost request never reaches the handler; a lost reply does, and its side
// effects stand (the owner cached the answer) — the asymmetry a retried
// forward has to tolerate. A peer that is down refuses the connection.
type simNet struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	down     map[string]bool
	drop     float64
	rng      uint64
}

// newSimNet builds a network dropping each message direction
// independently with probability drop, from the stream seeded by seed.
func newSimNet(seed uint64, drop float64) *simNet {
	return &simNet{
		handlers: make(map[string]http.Handler),
		down:     make(map[string]bool),
		drop:     drop,
		rng:      seed,
	}
}

// register attaches addr's handler (a peer joining the network).
func (s *simNet) register(addr string, h http.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[addr] = h
}

// setDown kills or revives a peer.
func (s *simNet) setDown(addr string, down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down[addr] = down
}

// coin advances the seeded stream one step; the caller holds the lock.
func (s *simNet) coin() bool {
	s.rng = bitutil.Mix64(s.rng + 0x9e3779b97f4a7c15)
	return s.drop > 0 && float64(s.rng>>11)/float64(1<<53) < s.drop
}

func (s *simNet) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	addr := req.URL.Host
	s.mu.Lock()
	h, ok := s.handlers[addr]
	down := s.down[addr]
	dropReq, dropReply := s.coin(), s.coin()
	s.mu.Unlock()
	if !ok || down {
		return nil, fmt.Errorf("sim: %s refused the connection", addr)
	}
	if dropReq {
		return nil, fmt.Errorf("sim: request to %s dropped", addr)
	}
	in := httptest.NewRequest(req.Method, req.URL.RequestURI(), nil).WithContext(req.Context())
	in.Header = req.Header.Clone()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, in)
	if dropReply {
		return nil, fmt.Errorf("sim: reply from %s dropped", addr)
	}
	return rec.Result(), nil
}

// simPeer is one daemon of a simulated cluster: a full serve server whose
// router forwards over the simNet, plus its access log.
type simPeer struct {
	srv *serve.Server
	rt  *Router
	log *bytes.Buffer
}

// simCluster starts one server per address, each registered on sim under
// its address, and shuts them down when the test ends.
func simCluster(t *testing.T, sim *simNet, addrs ...string) map[string]*simPeer {
	t.Helper()
	peers := make(map[string]*simPeer, len(addrs))
	for _, addr := range addrs {
		p := &simPeer{rt: NewRouter(addr, addrs, sim, 2*time.Second), log: new(bytes.Buffer)}
		p.srv = serve.New(serve.Config{Peers: p.rt, AccessLog: p.log})
		sim.register(addr, p.srv.Handler())
		peers[addr] = p
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, p := range peers {
			_ = p.srv.Shutdown(ctx)
		}
	})
	return peers
}

// ask sends one GET straight into h, synchronously: by the time it
// returns, every access-log line of the exchange is written.
func ask(h http.Handler, query string, hdr map[string]string) (int, http.Header, []byte) {
	req := httptest.NewRequest(http.MethodGet, query, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

// cand is one query with its canonical serve key (endpoint + "?" +
// request key), the string the ring hashes.
type cand struct{ query, key string }

// bisectionCands returns one bisection query per network size, in order.
func bisectionCands(network string, ns ...int) []cand {
	var out []cand
	for _, n := range ns {
		out = append(out, cand{
			query: fmt.Sprintf("/v1/bisection?network=%s&n=%d", network, n),
			key:   fmt.Sprintf("bisection?network=%s&n=%d&exact-nodes=32", network, n),
		})
	}
	return out
}

// ownedBy keeps the candidates rt's ring assigns to owner.
func ownedBy(t *testing.T, rt *Router, owner string, cands []cand) []cand {
	t.Helper()
	var out []cand
	for _, c := range cands {
		got, ok := rt.Owner(c.key)
		if !ok {
			t.Fatalf("no owner for %s", c.key)
		}
		if got == owner {
			out = append(out, c)
		}
	}
	return out
}

// answerRows decodes a response body's tables, dropping the per-run
// telemetry that differs between two solves of the same key.
func answerRows(t *testing.T, body []byte) map[string][]map[string]any {
	t.Helper()
	var doc struct {
		Tables []struct {
			Name string           `json:"name"`
			Rows []map[string]any `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding answer: %v\n%s", err, body)
	}
	out := make(map[string][]map[string]any)
	for _, tb := range doc.Tables {
		for _, row := range tb.Rows {
			delete(row, "elapsed_ms")
			delete(row, "explored")
			delete(row, "pruned")
		}
		out[tb.Name] = tb.Rows
	}
	return out
}

// TestRouterForwardingIntegration runs two full serve servers joined by a
// simNet cluster and checks the routing contract end to end: a key owned
// by the other peer is forwarded and answered byte-identically to asking
// the owner directly, a forwarded-in request is never bounced back out,
// a draining owner's 503 reaches the client with its Retry-After, and a
// dead owner degrades to a local solve instead of an error.
func TestRouterForwardingIntegration(t *testing.T) {
	sim := newSimNet(3, 0)
	peers := simCluster(t, sim, "a:7000", "b:7000")
	srvB, rtA := peers["b:7000"].srv, peers["a:7000"].rt
	htA := httptest.NewServer(peers["a:7000"].srv.Handler())
	htB := httptest.NewServer(srvB.Handler())
	t.Cleanup(func() {
		htA.Close()
		htB.Close()
	})

	fetch := func(base, query string, hdr map[string]string) (int, http.Header, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, body
	}

	// Split the candidate queries by ring ownership, computed exactly the
	// way the server does (canonical key = endpoint + "?" + request key).
	cands := bisectionCands("bn", 2, 4, 8, 16, 32, 64)
	ownedByA, ownedByB := ownedBy(t, rtA, "a:7000", cands), ownedBy(t, rtA, "b:7000", cands)
	if len(ownedByA) == 0 || len(ownedByB) == 0 {
		t.Fatalf("ring put all keys on one peer: A=%v B=%v", ownedByA, ownedByB)
	}

	// A B-owned key asked of A: forwarded, attributed, byte-identical.
	q := ownedByB[0].query
	status, hdr, viaA := fetch(htA.URL, q, nil)
	if status != http.StatusOK {
		t.Fatalf("forwarded query: status %d: %s", status, viaA)
	}
	if got := hdr.Get("X-Cluster-Peer"); got != "b:7000" {
		t.Fatalf("X-Cluster-Peer = %q, want b:7000", got)
	}
	if got := hdr.Get("X-Cache"); got != "peer" {
		t.Fatalf("X-Cache = %q, want peer", got)
	}
	status, hdr, direct := fetch(htB.URL, q, nil)
	if status != http.StatusOK {
		t.Fatalf("direct query to owner: status %d", status)
	}
	// The owner solved this key when A forwarded it, so asking it
	// directly is a plain cache hit — answered before the cluster layer
	// is ever consulted, hence no peer attribution.
	if got := hdr.Get("X-Cache"); got != "hit" {
		t.Fatalf("owner's direct answer X-Cache = %q, want hit", got)
	}
	if string(viaA) != string(direct) {
		t.Fatalf("forwarded body differs from owner's:\n via A: %s\ndirect: %s", viaA, direct)
	}

	// An A-owned key asked of A: answered locally, still attributed.
	status, hdr, _ = fetch(htA.URL, ownedByA[0].query, nil)
	if status != http.StatusOK {
		t.Fatalf("local query: status %d", status)
	}
	if got := hdr.Get("X-Cluster-Peer"); got != "a:7000" {
		t.Fatalf("local key attributed to %q", got)
	}

	// Loop prevention: a request carrying the internal marker is answered
	// where it lands, even for a key the ring assigns elsewhere.
	status, hdr, _ = fetch(htA.URL, ownedByB[0].query, map[string]string{InternalHeader: "1"})
	if status != http.StatusOK {
		t.Fatalf("internal-marked query: status %d", status)
	}
	if got := hdr.Get("X-Cluster-Peer"); got != "a:7000" {
		t.Fatalf("internal-marked query was bounced to %q", got)
	}

	if len(ownedByB) < 2 {
		t.Skip("need a second B-owned key for the drained- and dead-owner cases")
	}

	// Draining owner: it answers an unsolved key 503 with a Retry-After,
	// and the relay carries both, so the client backs off exactly as if it
	// had asked the owner.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvB.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	status, hdr, body := fetch(htA.URL, ownedByB[1].query, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("query with draining owner: status %d, want 503: %s", status, body)
	}
	if got := hdr.Get("X-Cluster-Peer"); got != "b:7000" {
		t.Fatalf("draining owner's 503 attributed to %q", got)
	}
	_, directHdr, _ := fetch(htB.URL, ownedByB[1].query, nil)
	if got, want := hdr.Get("Retry-After"), directHdr.Get("Retry-After"); got == "" || got != want {
		t.Fatalf("relayed Retry-After = %q, owner's own = %q", got, want)
	}

	// Dead owner: forwarding fails, the request falls back to a local
	// solve, and the benched peer's keys reassign for the cooldown.
	sim.setDown("b:7000", true)
	status, hdr, _ = fetch(htA.URL, ownedByB[1].query, nil)
	if status != http.StatusOK {
		t.Fatalf("query with dead owner: status %d", status)
	}
	if got := hdr.Get("X-Cluster-Peer"); got != "a:7000" {
		t.Fatalf("dead-owner fallback attributed to %q", got)
	}
	if owner, ok := rtA.Owner(ownedByB[1].key); ok && owner == "b:7000" {
		t.Fatalf("benched peer still owns its keys")
	}
}

// TestRouterForwardingUnderLoss asks one peer, over a network that drops
// 15% of messages each way, for every key the other peer owns. Every
// answer is a 200: a forwarded one names the owner and carries its exact
// bytes; a fallback (both attempts lost, owner benched) names the asked
// node and carries the owner's rows. The seed is one where the run takes
// both paths, and the test checks that it did.
func TestRouterForwardingUnderLoss(t *testing.T) {
	sim := newSimNet(4, 0.15)
	peers := simCluster(t, sim, "a:7000", "b:7000")
	a, b := peers["a:7000"], peers["b:7000"]

	// Small networks under several exact budgets: every answer is exact,
	// so a fallback's rows must equal the owner's.
	var cands []cand
	for _, net := range []struct {
		name string
		ns   []int
	}{{"bn", []int{2, 4, 8}}, {"wn", []int{4, 8}}, {"ccc", []int{8}}} {
		for _, n := range net.ns {
			for _, x := range []int{24, 32, 40, 48} {
				req := fmt.Sprintf("network=%s&n=%d&exact-nodes=%d", net.name, n, x)
				cands = append(cands, cand{query: "/v1/bisection?" + req, key: "bisection?" + req})
			}
		}
	}
	owned := ownedBy(t, a.rt, "b:7000", cands)

	forwarded, fellBack := 0, 0
	for _, c := range owned {
		status, hdr, body := ask(a.srv.Handler(), c.query, nil)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.query, status, body)
		}
		_, _, direct := ask(b.srv.Handler(), c.query, nil)
		switch peer := hdr.Get("X-Cluster-Peer"); peer {
		case "b:7000":
			forwarded++
			if !bytes.Equal(body, direct) {
				t.Fatalf("%s: forwarded body differs from owner's:\n via A: %s\ndirect: %s", c.query, body, direct)
			}
		case "a:7000":
			fellBack++
			if got, want := answerRows(t, body), answerRows(t, direct); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: local fallback rows differ from owner's:\n via A: %v\ndirect: %v", c.query, got, want)
			}
		default:
			t.Fatalf("%s: X-Cluster-Peer = %q", c.query, peer)
		}
	}
	if forwarded == 0 || fellBack == 0 {
		t.Fatalf("over %d keys: %d forwarded, %d fell back; the seed must exercise both paths", len(owned), forwarded, fellBack)
	}
}

// TestRequestIDCrossesPeerHop: a forwarded request keeps its ID, so the
// owner's access-log line joins the forwarder's — for a client-supplied
// ID and for one the forwarder generated.
func TestRequestIDCrossesPeerHop(t *testing.T) {
	sim := newSimNet(1, 0)
	peers := simCluster(t, sim, "a:7000", "b:7000")
	a, b := peers["a:7000"], peers["b:7000"]
	owned := ownedBy(t, a.rt, "b:7000", bisectionCands("bn", 2, 4, 8, 16, 32, 64))
	if len(owned) < 2 {
		t.Fatalf("need two B-owned keys, have %v", owned)
	}

	// logged returns the one access-log line of log carrying id.
	logged := func(log *bytes.Buffer, id string) map[string]any {
		t.Helper()
		var found map[string]any
		for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("access-log line %q: %v", line, err)
			}
			if rec["id"] == id {
				if found != nil {
					t.Fatalf("id %q logged twice", id)
				}
				found = rec
			}
		}
		if found == nil {
			t.Fatalf("id %q missing from access log:\n%s", id, log)
		}
		return found
	}

	for i, hdr := range []map[string]string{{"X-Request-ID": "client-id-1"}, nil} {
		status, rh, body := ask(a.srv.Handler(), owned[i].query, hdr)
		if status != http.StatusOK || rh.Get("X-Cluster-Peer") != "b:7000" {
			t.Fatalf("%s: status %d, X-Cluster-Peer %q: %s", owned[i].query, status, rh.Get("X-Cluster-Peer"), body)
		}
		id := rh.Get("X-Request-ID")
		if hdr != nil && id != hdr["X-Request-ID"] {
			t.Fatalf("client ID %q answered as %q", hdr["X-Request-ID"], id)
		}
		if got := logged(a.log, id)["outcome"]; got != "peer" {
			t.Fatalf("forwarder logged %q with outcome %v, want peer", id, got)
		}
		if got := logged(b.log, id)["outcome"]; got != "ok" {
			t.Fatalf("owner logged %q with outcome %v, want ok", id, got)
		}
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestRouteBenchesUnreachableOwner: an owner that never answers is
// benched and the request falls back, well inside a 10 s client budget,
// whether its host is down or cut off (the default transport's dial
// hangs, and gives up after dialTimeout) or it accepted the connection
// and stalls (the client hangs up first).
func TestRouteBenchesUnreachableOwner(t *testing.T) {
	peers := []string{"a:7000", "b:7000"}
	owned := ownedBy(t, NewRouter("a:7000", peers, newSimNet(1, 0), 0), "b:7000", bisectionCands("bn", 2, 4, 8, 16, 32, 64))
	if len(owned) == 0 {
		t.Fatal("no B-owned key")
	}
	hangingDial := peerTransport(func(ctx context.Context, _, _ string) (net.Conn, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	stalledOwner := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		<-req.Context().Done()
		return nil, req.Context().Err()
	})
	for _, tc := range []struct {
		name       string
		tr         http.RoundTripper
		clientWait time.Duration // 0: the client waits for the answer
		within     time.Duration
	}{
		{"hanging dial", hangingDial, 0, 3 * dialTimeout},
		{"stalled owner", stalledOwner, 50 * time.Millisecond, time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rt := NewRouter("a:7000", peers, tc.tr, 10*time.Second)
			ctx := context.Background()
			if tc.clientWait > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.clientWait)
				defer cancel()
			}
			req := httptest.NewRequest(http.MethodGet, owned[0].query, nil).WithContext(ctx)
			start := time.Now()
			if _, ok := rt.Route(req, owned[0].key, "down-1"); ok {
				t.Fatal("unreachable owner answered")
			}
			if took := time.Since(start); took > tc.within {
				t.Fatalf("fell back after %v, want within %v", took, tc.within)
			}
			if owner, _ := rt.Owner(owned[0].key); owner != "a:7000" {
				t.Fatalf("owner not benched: key still owned by %q", owner)
			}
		})
	}
}

// Owner exposes the ring decision for key among currently alive peers
// (tests and status surfaces).
func (rt *Router) Owner(key string) (string, bool) {
	return rt.ring.Owner(key, rt.alive)
}
