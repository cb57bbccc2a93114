package loadgen

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bitutil"
)

// Profile names one request-mix: which query paths the generator fires,
// in which proportions and order. The sequence a profile produces is a
// pure function of (profile, seed, n) — two runs with the same triple
// drive the daemon with byte-identical request streams, so a perf delta
// between two reports is the server's, never the workload's.
type Profile string

const (
	// HitHeavy cycles pseudo-randomly over a small pool of cheap
	// distinct queries: after one cold pass everything is an LRU hit —
	// the cache fast path under sustained load.
	HitHeavy Profile = "hit-heavy"
	// MissHeavy makes every request unique (a fresh routing seed each
	// time), so every request is a cache miss and a real (cheap) solve —
	// the admission-control and solver path under sustained load.
	MissHeavy Profile = "miss-heavy"
	// ZipfShapes draws bisection queries from a zipfian distribution
	// over butterfly sizes: a few hot shapes dominate, a long tail of
	// rarer shapes keeps missing — the realistic skew cache sizing is
	// tuned against.
	ZipfShapes Profile = "zipf-shapes"
	// Storm fires consecutive bursts of byte-identical queries, each
	// burst under a fresh key: at open-loop rates the burst outruns its
	// own first solve, so the followers must coalesce — the singleflight
	// path under load.
	Storm Profile = "storm"
)

// Profiles lists every mix in presentation order.
func Profiles() []Profile { return []Profile{HitHeavy, MissHeavy, ZipfShapes, Storm} }

// ParseProfile resolves a -mix flag value.
func ParseProfile(s string) (Profile, error) {
	for _, p := range Profiles() {
		if string(p) == strings.ToLower(strings.TrimSpace(s)) {
			return p, nil
		}
	}
	names := make([]string, 0, 4)
	for _, p := range Profiles() {
		names = append(names, string(p))
	}
	return "", fmt.Errorf("mix: want %s (got %q)", strings.Join(names, ", "), s)
}

// stormBurst is how many byte-identical requests each Storm burst holds.
const stormBurst = 32

// hitPool is the HitHeavy query pool: distinct, individually cheap, all
// resident in a default-sized LRU at once.
var hitPool = []string{
	"/v1/bisection?network=bn&n=4",
	"/v1/bisection?network=bn&n=8",
	"/v1/bisection?network=bn&n=16",
	"/v1/bisection?network=bn&n=32",
	"/v1/bisection?network=wn&n=4",
	"/v1/bisection?network=wn&n=8",
	"/v1/routing?n=8&trials=3&seed=1",
	"/v1/routing?n=16&trials=3&seed=1",
}

// zipfShapes are the ZipfShapes butterfly sizes, rank-ordered hottest
// first; zipfCDF is the cumulative rank-probability table for exponent
// 1.2, built once.
var zipfShapes = []int{8, 16, 32, 4, 64, 128, 256, 512, 1024, 2048}

var zipfCDF = func() []float64 {
	weights := make([]float64, len(zipfShapes))
	total := 0.0
	for r := range zipfShapes {
		weights[r] = 1 / math.Pow(float64(r+1), 1.2)
		total += weights[r]
	}
	cdf := make([]float64, len(weights))
	cum := 0.0
	for r, w := range weights {
		cum += w / total
		cdf[r] = cum
	}
	cdf[len(cdf)-1] = 1
	return cdf
}()

// u01 maps a mixed 64-bit word onto [0, 1).
func u01(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Requests returns the profile's deterministic request sequence: n
// server-relative query paths. The i-th element depends only on
// (profile, seed, i), so a re-run replays the identical stream and a
// report can name the request sequence by (mix, seed, n) alone.
func Requests(p Profile, seed int64, n int) []string {
	out := make([]string, n)
	for i := 0; i < n; i++ {
		// The same splitmix64 stream routing trials draw from, so nearby
		// (seed, i) pairs share no draws.
		r := uint64(bitutil.SubSeed(seed, i))
		switch p {
		case HitHeavy:
			out[i] = hitPool[r%uint64(len(hitPool))]
		case MissHeavy:
			// Unique seed per request: the high bits carry the run seed,
			// the low bits the index, so two runs with different -seed
			// values also miss each other's stored results.
			out[i] = fmt.Sprintf("/v1/routing?n=8&trials=2&seed=%d", (uint64(seed)&0x3ff)<<32|uint64(i)+1)
		case ZipfShapes:
			u := u01(r)
			shape := zipfShapes[len(zipfShapes)-1]
			for rank, c := range zipfCDF {
				if u < c {
					shape = zipfShapes[rank]
					break
				}
			}
			out[i] = fmt.Sprintf("/v1/bisection?network=bn&n=%d", shape)
		case Storm:
			// One fresh key per burst, repeated stormBurst times in a
			// row: fired faster than one solve completes, the repeats
			// coalesce onto the burst leader.
			burst := i / stormBurst
			out[i] = fmt.Sprintf("/v1/routing?n=16&trials=4&seed=%d", (uint64(seed)&0x3ff)<<32|uint64(burst)+1)
		default:
			out[i] = hitPool[0]
		}
	}
	return out
}
