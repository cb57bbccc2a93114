package loadgen

import "testing"

// TestClassifyPeerIsServed: an answer a cluster peer relayed (X-Cache:
// peer) is a class of its own, neither a fresh solve nor an error.
func TestClassifyPeerIsServed(t *testing.T) {
	if got := classify(200, "peer", true); got != "peer" {
		t.Fatalf("classify(200, peer) = %q, want peer", got)
	}
	r := &Result{Completed: 4, Outcomes: map[string]int64{"peer": 3, "503": 1}}
	if got := r.ErrorRate(); got != 0.25 {
		t.Fatalf("ErrorRate = %g, want 0.25: relayed answers are served", got)
	}
}
