package route

import (
	"fmt"

	"repro/internal/bitutil"
)

// This file defines the fault model of the routing simulator: lossy links
// with deterministic seeded retransmission, permanently dead links sampled
// per trial, and the switching discipline. The §1.2 bound
// time ≥ N/(4·BW) certifies routing time on a healthy network; these
// knobs measure how far greedy routing degrades from that floor as links
// die and traffic turns adversarial. Every fault decision is drawn from a
// dedicated per-trial RNG (derived from the trial seed by faultSeed), so
// lossy runs reproduce byte-identically at any worker count and the
// zero-value FaultOptions consumes no randomness at all — fault-free
// simulations are bit-for-bit the healthy engine.

// Switching selects the switch discipline of the simulator.
type Switching int

const (
	// StoreAndForward is the classic synchronous model: a packet advances
	// at most one edge per step and waits in the FIFO queue of each edge.
	StoreAndForward Switching = iota
	// CutThrough lets a packet that wins its edge keep advancing through
	// consecutive idle edges (empty queue, not yet used this step) within
	// the same step — the wormhole/cut-through latency collapse. Edge
	// capacity still holds: every edge carries at most one packet per step.
	CutThrough
)

func (s Switching) String() string {
	switch s {
	case StoreAndForward:
		return "store-and-forward"
	case CutThrough:
		return "cut-through"
	}
	return fmt.Sprintf("Switching(%d)", int(s))
}

// Slug is the short machine-readable name used in manifests, cache keys
// and query parameters.
func (s Switching) Slug() string {
	if s == CutThrough {
		return "ct"
	}
	return "sf"
}

// ParseSwitching resolves a slug or full name to a Switching mode.
func ParseSwitching(s string) (Switching, error) {
	switch s {
	case "sf", "store-and-forward":
		return StoreAndForward, nil
	case "ct", "cut-through", "wormhole":
		return CutThrough, nil
	}
	return StoreAndForward, fmt.Errorf("switching: want sf or ct (got %q)", s)
}

// FaultOptions injects link faults into a simulation. The zero value is
// the healthy network: no drops, no dead links, and — by construction —
// byte-identical behavior to a simulation run without any fault model.
type FaultOptions struct {
	// DropProb is the probability that one transmission attempt across a
	// link loses the packet, in [0, 1). A lost packet stays at the head of
	// its queue and retransmits on the next step.
	DropProb float64
	// MaxRetransmits bounds the failed transmission attempts of one
	// packet: the MaxRetransmits-th loss drops the packet permanently.
	// 0 means retry forever (the link layer never gives up).
	MaxRetransmits int
	// DeadLinkProb is the probability that a directed link is permanently
	// dead for the whole trial, in [0, 1). Dead links are sampled once per
	// trial from the trial's fault seed; a packet whose next hop is dead
	// is dropped at that point (greedy routes carry no detours).
	DeadLinkProb float64
}

// Enabled reports whether any fault is configured.
func (f FaultOptions) Enabled() bool {
	return f.DropProb > 0 || f.DeadLinkProb > 0
}

// Validate rejects probabilities outside [0, 1) and negative budgets.
func (f FaultOptions) Validate() error {
	if f.DropProb < 0 || f.DropProb >= 1 {
		return fmt.Errorf("drop probability must be in [0, 1) (got %g)", f.DropProb)
	}
	if f.DeadLinkProb < 0 || f.DeadLinkProb >= 1 {
		return fmt.Errorf("dead-link probability must be in [0, 1) (got %g)", f.DeadLinkProb)
	}
	if f.MaxRetransmits < 0 {
		return fmt.Errorf("retransmission budget must be ≥ 0 (got %d)", f.MaxRetransmits)
	}
	return nil
}

// faultSeed derives the fault-RNG seed of a trial from the trial's own
// seed (one more splitmix64 step, offset so it never collides with the
// destination stream). Both engines — flat and reference — seed their
// fault RNG with it and draw in the same order: dead links first, in
// directed-edge id order, then one draw per transmission attempt in move
// order, so lossy cross-checks agree draw for draw.
func faultSeed(seed int64) int64 { return bitutil.SubSeed(^seed, 0x0fa17) }
