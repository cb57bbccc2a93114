// Package emulation executes one network's communication on another
// through an embedding, quantifying the §1.3/§1.5 principle that embeddings
// with load l, congestion c and dilation d support emulations with slowdown
// O(l + c + d) — the mechanism behind the hypercube-relative equivalences
// ([12], [26]) the paper surveys, and behind the use of expansion gaps to
// lower-bound emulation inefficiency.
//
// The model: in one guest step, every guest edge carries one message in
// each direction. The host realizes this by forwarding all 2·M_guest
// messages along the embedding's paths under synchronous store-and-forward
// switching (each directed host edge moves one message per host step). The
// measured host steps per guest step is the slowdown.
package emulation

import (
	"sort"

	"repro/internal/embed"
)

// Result summarizes the emulation of one guest step.
type Result struct {
	Messages  int // 2 × guest edges
	HostSteps int // host steps needed to deliver them all
	// CongestionFloor and DilationFloor are certified lower bounds on
	// HostSteps: the busiest host edge must forward CongestionFloor
	// messages, and some message travels DilationFloor hops.
	CongestionFloor int
	DilationFloor   int
}

// EmulateStep routes one full guest communication step over the host and
// returns the measured slowdown. Zero-length paths (guest edges collapsed
// onto one host node) are delivered instantly.
func EmulateStep(e *embed.Embedding) Result {
	var res Result
	// Each guest edge yields two messages, one per direction.
	type msg struct {
		path []int
		pos  int
	}
	var msgs []msg
	for _, p := range e.Paths {
		if len(p) < 2 {
			res.Messages += 2
			continue
		}
		rev := make([]int, len(p))
		for i, v := range p {
			rev[len(p)-1-i] = v
		}
		msgs = append(msgs, msg{path: p}, msg{path: rev})
		res.Messages += 2
		if len(p)-1 > res.DilationFloor {
			res.DilationFloor = len(p) - 1
		}
	}

	// Directed congestion floor.
	dirCong := make(map[[2]int]int)
	for _, m := range msgs {
		for i := 0; i+1 < len(m.path); i++ {
			key := [2]int{m.path[i], m.path[i+1]}
			dirCong[key]++
			if dirCong[key] > res.CongestionFloor {
				res.CongestionFloor = dirCong[key]
			}
		}
	}

	// Synchronous store-and-forward with FIFO queues per directed edge.
	queues := make(map[[2]int][]int32)
	remaining := 0
	enqueue := func(id int) {
		m := &msgs[id]
		if m.pos+1 < len(m.path) {
			key := [2]int{m.path[m.pos], m.path[m.pos+1]}
			queues[key] = append(queues[key], int32(id))
			remaining++
		}
	}
	for id := range msgs {
		enqueue(id)
	}
	for remaining > 0 {
		res.HostSteps++
		if res.HostSteps > 4*len(msgs)+16 {
			panic("emulation: routing did not converge")
		}
		type move struct {
			id  int32
			key [2]int
		}
		var moves []move
		for key, q := range queues {
			if len(q) > 0 {
				moves = append(moves, move{q[0], key})
			}
		}
		sort.Slice(moves, func(i, j int) bool {
			if moves[i].key[0] != moves[j].key[0] {
				return moves[i].key[0] < moves[j].key[0]
			}
			return moves[i].key[1] < moves[j].key[1]
		})
		for _, mv := range moves {
			q := queues[mv.key]
			queues[mv.key] = q[1:]
			if len(q) == 1 {
				delete(queues, mv.key)
			}
			remaining--
			msgs[mv.id].pos++
			enqueue(int(mv.id))
		}
	}
	return res
}

// SlowdownBudget returns the O(l + c + d) budget for an embedding: a
// generous constant times load + 2·(undirected congestion) + dilation. The
// emulation's measured HostSteps must come in under it.
func SlowdownBudget(e *embed.Embedding) int {
	return 4 * (e.Load() + 2*e.Congestion() + e.Dilation())
}
