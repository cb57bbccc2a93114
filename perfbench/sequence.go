package main

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// query is one API request in structured form: the benchmark builds every
// URL from it and replays its parameters into direct layer calls, so the
// two always agree. Zero fields are left out of the URL.
type query struct {
	Endpoint string // "bisection", "expansion" or "routing"

	Network    string // bisection: bn, wn or ccc
	N          int
	ExactNodes int // bisection and expansion

	Kind string // expansion: ee_wn, ne_wn, ee_bn or ne_bn
	KMax int

	Pattern     string // routing: random, permutation, hotspot or bitreversal
	Trials      int
	Seed        int64
	Drops       []float64
	Retransmits int

	Timeout string // solve budget (Go duration), not part of the key
}

// path is the server-relative URL of the query.
func (q query) path() string {
	var b strings.Builder
	b.WriteString("/v1/")
	b.WriteString(q.Endpoint)
	sep := byte('?')
	add := func(name, value string) {
		b.WriteByte(sep)
		sep = '&'
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(value)
	}
	switch q.Endpoint {
	case "bisection":
		add("network", q.Network)
		add("n", strconv.Itoa(q.N))
		add("exact-nodes", strconv.Itoa(q.ExactNodes))
	case "expansion":
		add("kind", q.Kind)
		add("n", strconv.Itoa(q.N))
		add("exact-nodes", strconv.Itoa(q.ExactNodes))
		add("kmax", strconv.Itoa(q.KMax))
	case "routing":
		add("kind", q.Pattern)
		add("n", strconv.Itoa(q.N))
		add("trials", strconv.Itoa(q.Trials))
		add("seed", strconv.FormatInt(q.Seed, 10))
		if len(q.Drops) > 0 {
			drops := make([]string, len(q.Drops))
			for i, p := range q.Drops {
				drops[i] = strconv.FormatFloat(p, 'g', -1, 64)
			}
			add("drop", strings.Join(drops, ","))
		}
		if q.Retransmits > 0 {
			add("retransmits", strconv.Itoa(q.Retransmits))
		}
	}
	if q.Timeout != "" {
		add("timeout", q.Timeout)
	}
	return b.String()
}

func bisectionQ(network string, n, exactNodes int) query {
	return query{Endpoint: "bisection", Network: network, N: n, ExactNodes: exactNodes}
}

func expansionQ(kind string, n, exactNodes, kmax int) query {
	return query{Endpoint: "expansion", Kind: kind, N: n, ExactNodes: exactNodes, KMax: kmax}
}

func routingQ(pattern string, n, trials int, seed int64, drops []float64, retransmits int) query {
	return query{Endpoint: "routing", Pattern: pattern, N: n, Trials: trials, Seed: seed,
		Drops: drops, Retransmits: retransmits}
}

var routingPatterns = []string{"random", "permutation", "hotspot", "bitreversal"}

// warmCatalogue is serve-warm's key set: about 150 individually cheap
// queries across the three solving endpoints. Its rank order (the
// popularity order of the zipf draws) is a fixed shuffle, independent of
// the run seed, so every seed serves the same hot set.
func warmCatalogue() []query {
	var qs []query
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128} {
		qs = append(qs, bisectionQ("bn", n, 0), bisectionQ("bn", n, 32))
	}
	for _, n := range []int{2048, 4096, 1 << 18, 1 << 20} {
		qs = append(qs, bisectionQ("bn", n, 32))
	}
	for _, n := range []int{4, 8, 16, 32, 64} {
		qs = append(qs, bisectionQ("wn", n, 0), bisectionQ("wn", n, 32))
	}
	for _, n := range []int{8, 16, 32, 64} {
		qs = append(qs, bisectionQ("ccc", n, 0), bisectionQ("ccc", n, 32))
	}
	for _, kind := range []string{"ee_wn", "ne_wn", "ee_bn", "ne_bn"} {
		for _, n := range []int{16, 32, 64, 128, 256, 1024} {
			if k, _ := core.ParseExpansionKind(kind); core.MaxWitnessDim(k, n) < 1 {
				continue
			}
			qs = append(qs, expansionQ(kind, n, 0, 8), expansionQ(kind, n, 32, 8))
		}
	}
	for _, p := range routingPatterns {
		for _, n := range []int{8, 16, 32, 64} {
			for _, seed := range []int64{1, 2} {
				qs = append(qs, routingQ(p, n, 5, seed, nil, 0), routingQ(p, n, 10, seed, nil, 0))
			}
		}
	}
	for _, p := range []string{"random", "permutation"} {
		for _, n := range []int{16, 32} {
			for _, seed := range []int64{1, 2} {
				qs = append(qs, routingQ(p, n, 5, seed, []float64{0, 0.05, 0.1}, 4))
			}
		}
	}
	return fixedShuffle(qs)
}

// mixedPopular is serve-mixed's recurring key set, small enough that
// every seed touches every key. The expensive shapes real traffic asks
// for — bn n=512 and n=1024, 125–530 ms of FM heuristic each — sit at
// popular ranks, so every seed touches them early; the first touch of
// each key solves and later ones hit.
func mixedPopular() []query {
	qs := []query{
		bisectionQ("bn", 64, 32), bisectionQ("bn", 8, 32),
		bisectionQ("bn", 512, 32), expansionQ("ee_wn", 64, 32, 8),
		bisectionQ("bn", 1024, 32), routingQ("random", 64, 10, 1, nil, 0),
	}
	var rest []query
	for _, n := range []int{16, 128, 256, 4096} {
		rest = append(rest, bisectionQ("bn", n, 32))
	}
	for _, n := range []int{8, 32, 128} {
		rest = append(rest, bisectionQ("wn", n, 32), bisectionQ("ccc", n, 32))
	}
	for _, kind := range []string{"ee_wn", "ne_wn", "ee_bn", "ne_bn"} {
		rest = append(rest, expansionQ(kind, 256, 32, 8))
	}
	for _, p := range routingPatterns {
		for _, n := range []int{16, 256} {
			rest = append(rest, routingQ(p, n, 10, 1, nil, 0))
		}
	}
	rest = append(rest, routingQ("permutation", 128, 10, 1, []float64{0, 0.05, 0.1}, 4))
	return append(qs, fixedShuffle(rest)...)
}

// freshShapes are the never-seen routing shapes serve-mixed cycles
// through, 5–190 ms of Monte-Carlo each; only the routing seed changes
// from one request to the next, so no two requests share a key.
var freshShapes = []query{
	routingQ("permutation", 4096, 8, 0, nil, 0),
	routingQ("random", 256, 10, 0, nil, 0),
	routingQ("hotspot", 512, 4, 0, nil, 0),
	routingQ("bitreversal", 1024, 4, 0, []float64{0, 0.05, 0.1}, 4),
	routingQ("permutation", 2048, 10, 0, []float64{0, 0.02, 0.05, 0.1}, 4),
	routingQ("random", 1024, 4, 0, []float64{0, 0.05}, 4),
	routingQ("random", 64, 25, 0, nil, 0),
	routingQ("permutation", 4096, 25, 0, []float64{0, 0.05, 0.1}, 4),
}

// certKey is one certify query and the exact values pinned for its rows
// (set size k → optimum).
type certKey struct {
	Q    query
	Pins map[int]int
}

// warmupCert is the certificate asked before each timed certificate
// pass: NE(W32,k<=8)=12 primes the exact engine.
var warmupCert = certKey{Q: expansionQ("ne_wn", 32, 80, 8), Pins: map[int]int{8: 12}}

// certifySet is the paper's hardest exact certificates the API serves.
// EE(W16,12)=16, EE(W16,4)=8 and NE(W64,8)=12 are EXPERIMENTS' pinned
// values; the other optima equal their lemma witness (the witness is
// optimal), which the body check also asserts.
func certifySet() []certKey {
	c := func(kind string, n, exactNodes int, pins map[int]int) certKey {
		q := expansionQ(kind, n, exactNodes, 12)
		q.Timeout = "60s"
		return certKey{Q: q, Pins: pins}
	}
	return []certKey{
		c("ee_wn", 16, 32, map[int]int{4: 8, 12: 16}), // EE(W16,k<=12)
		c("ne_wn", 64, 192, map[int]int{8: 12}),       // NE(W64,k<=12)
		c("ee_bn", 16, 80, map[int]int{4: 4, 12: 8}),  // EE(B16,k<=12)
		c("ne_wn", 32, 80, map[int]int{8: 12}),        // NE(W32,k<=12)
		c("ne_bn", 32, 192, map[int]int{8: 4}),        // NE(B32,k<=12)
	}
}

// mix64 is the splitmix64 finalizer: the benchmark's only source of
// randomness, so a sequence is a pure function of (workload, seed).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func u01(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// fixedShuffle orders qs by a seed-independent hash of their paths.
func fixedShuffle(qs []query) []query {
	out := append([]query(nil), qs...)
	h := func(q query) uint64 {
		var x uint64 = 0x5eed
		for _, c := range q.path() {
			x = mix64(x ^ uint64(c))
		}
		return x
	}
	sort.SliceStable(out, func(i, j int) bool { return h(out[i]) < h(out[j]) })
	return out
}

// zipf draws ranks 0..n-1 with probability ∝ 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for r := range cdf {
		total += 1 / math.Pow(float64(r+1), s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return zipf{cdf}
}

func (z zipf) rank(u float64) int {
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// Zipf exponents and the never-seen share of serve-mixed.
const (
	warmZipfS   = 1.0
	mixedZipfS  = 1.1
	mixedFreshK = 16 // every 16th serve-mixed request is a never-seen key
)

// warmSequence is serve-warm's request stream: n zipf draws over the
// catalogue.
func warmSequence(seed int64, n int, catalogue []query) []query {
	z := newZipf(len(catalogue), warmZipfS)
	out := make([]query, n)
	for i := range out {
		out[i] = catalogue[z.rank(u01(mix64(uint64(seed)<<24^uint64(i))))]
	}
	return out
}

// mixedSequence is serve-mixed's request stream: every mixedFreshK-th
// request (offset to the middle of each block, so they spread evenly) is
// a never-seen routing key cycling through freshShapes, the rest are zipf
// draws over the popular keys.
func mixedSequence(seed int64, n int, popular []query) []query {
	z := newZipf(len(popular), mixedZipfS)
	out := make([]query, n)
	for i := range out {
		r := mix64(uint64(seed)<<24 ^ uint64(i) ^ 0xa5a5)
		if i%mixedFreshK == mixedFreshK/2 {
			q := freshShapes[(i/mixedFreshK)%len(freshShapes)]
			q.Seed = int64(mix64(r) >> 2)
			out[i] = q
			continue
		}
		out[i] = popular[z.rank(u01(r))]
	}
	return out
}
