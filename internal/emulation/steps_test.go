package emulation

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/topology"
)

func TestEmulateStepsAmortized(t *testing.T) {
	host := topology.NewButterfly(8)
	e := embed.BenesIntoButterfly(host)
	per := EmulateStep(e).HostSteps
	total := EmulateSteps(e, 5)
	if total != 5*per {
		t.Errorf("5 steps took %d, want %d", total, 5*per)
	}
}

func TestEmulateStepsValidation(t *testing.T) {
	host := topology.NewButterfly(8)
	e := embed.BenesIntoButterfly(host)
	defer func() {
		if recover() == nil {
			t.Errorf("t=0 did not panic")
		}
	}()
	EmulateSteps(e, 0)
}

// EmulateSteps emulates t consecutive guest steps with a barrier between
// steps (a guest node's step-t+1 messages depend on its step-t arrivals),
// returning the total host steps. The amortized slowdown TotalSteps/t is
// the §1.5 work-preserving emulation figure.
func EmulateSteps(e *embed.Embedding, t int) (totalSteps int) {
	if t < 1 {
		panic("emulation: step count must be positive")
	}
	per := EmulateStep(e).HostSteps
	// The model is memoryless across barriers: every guest step routes the
	// same message pattern, so t steps cost exactly t × one step.
	return t * per
}
