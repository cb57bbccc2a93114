package route

// SimResult summarizes one synchronous store-and-forward routing run.
type SimResult struct {
	// Packets is the number of packets routed (one per network node).
	Packets int
	// Steps is the simulated completion time: each directed edge forwards
	// at most one packet per step. For an Exhausted run it is the step
	// limit the run hit.
	Steps int
	// CutCrossings counts packets whose route crosses the reference cut —
	// the quantity whose expectation is N/4 per direction in §1.2.
	CutCrossings int
	// CongestionBound is ⌈CutCrossings / cut capacity⌉, a certified lower
	// bound on Steps for these routes: every crossing packet consumes one
	// cut-edge slot per step.
	CongestionBound int
	// MaxQueue is the largest per-edge queue observed.
	MaxQueue int
	// Delivered counts packets that reached their destination; on a
	// healthy network Delivered == Packets.
	Delivered int
	// Dropped counts packets lost to a dead link or an exhausted
	// retransmission budget. Delivered + Dropped == Packets unless the
	// run was Exhausted (some packets then remain in flight).
	Dropped int
	// Retransmits counts failed transmission attempts across all packets.
	Retransmits int
	// DeadLinks is the number of directed links the trial's fault plan
	// declared permanently dead.
	DeadLinks int
	// Exhausted marks a run that hit the step limit without finishing —
	// reachable under heavy drop rates with an unbounded retransmission
	// budget. Exhausted runs report the partial counters observed so far.
	Exhausted bool
}
