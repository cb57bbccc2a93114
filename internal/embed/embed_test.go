package embed

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

func TestKnnIntoButterfly(t *testing.T) {
	// Lemma 3.1: load 1 (on the used nodes), congestion n/2, dilation log n.
	for _, n := range []int{4, 8, 16} {
		b := topology.NewButterfly(n)
		e := KnnIntoButterfly(b)
		if err := e.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if e.Load() != 1 {
			t.Errorf("n=%d: load %d, want 1", n, e.Load())
		}
		if got := e.Congestion(); got != n/2 {
			t.Errorf("n=%d: congestion %d, want %d", n, got, n/2)
		}
		if got := e.Dilation(); got != b.Dim() {
			t.Errorf("n=%d: dilation %d, want %d", n, got, b.Dim())
		}
	}
}

func TestKNIntoWrapped(t *testing.T) {
	// Theorem 4.3's embedding: valid, load 1, congestion O(N log n).
	for _, n := range []int{4, 8, 16} {
		w := topology.NewWrappedButterfly(n)
		e := KNIntoWrapped(w)
		if err := e.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if e.Load() != 1 {
			t.Errorf("n=%d: load %d", n, e.Load())
		}
		N := w.N()
		d := w.Dim()
		if got, limit := e.Congestion(), 2*N*d; got > limit {
			t.Errorf("n=%d: congestion %d exceeds O(N log n) budget %d", n, got, limit)
		}
		if got, limit := e.Dilation(), 3*d; got > limit {
			t.Errorf("n=%d: dilation %d exceeds 3 log n = %d", n, got, limit)
		}
	}
}

func TestKNIntoButterflyLowerBounds(t *testing.T) {
	// The induced lower bounds must sit below the known truths:
	// BW(Bn) ≥ N²/4c and EE ≥ k(N−k)/c.
	b := topology.NewButterfly(8)
	e := KNIntoButterfly(b)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	lb := e.BisectionLowerBound(CompleteBisectionWidth(b.N()))
	if lb < 1 {
		t.Errorf("trivial lower bound %d", lb)
	}
	if lb > 8 { // BW(B8) = 8 exactly, so the bound cannot exceed it
		t.Errorf("lower bound %d exceeds BW(B8) = 8", lb)
	}
	for _, k := range []int{1, 4, 8, 16} {
		if got := e.EdgeExpansionLowerBound(k); got < 1 {
			t.Errorf("k=%d: degenerate expansion bound %d", k, got)
		}
	}
}

func TestDoubledCompleteIntoButterfly(t *testing.T) {
	// §1.4: 2K_N into Bn gives BW(Bn) ≥ N²/2c ≈ n/2.
	for _, n := range []int{4, 8} {
		b := topology.NewButterfly(n)
		e := DoubledCompleteIntoButterfly(b)
		if err := e.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if e.Load() != 1 {
			t.Errorf("load %d", e.Load())
		}
		lb := e.BisectionLowerBound(DoubledCompleteBisectionWidth(b.N()))
		if lb < n/2-1 {
			t.Errorf("n=%d: 2K_N lower bound %d, expected ≈ n/2 = %d", n, lb, n/2)
		}
		if lb > n {
			t.Errorf("n=%d: lower bound %d above BW ≤ n", n, lb)
		}
	}
}

func TestBkIntoBnProperties(t *testing.T) {
	// Lemma 2.10: dilation 1, uniform congestion exactly 2^j, and the load
	// profile of properties (3)–(5).
	for _, tc := range []struct{ n, i, j int }{
		{8, 1, 1}, {8, 2, 1}, {8, 0, 1}, {8, 3, 1}, {8, 1, 2}, {16, 2, 1},
	} {
		host := topology.NewButterfly(tc.n)
		e := BkIntoBn(host, tc.i, tc.j)
		if err := e.Validate(); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if got := e.Dilation(); got > 1 {
			t.Errorf("%+v: dilation %d, want ≤ 1", tc, got)
		}
		cong, uniform := e.UniformCongestion()
		if !uniform {
			t.Errorf("%+v: congestion not uniform", tc)
		}
		if cong != 1<<tc.j {
			t.Errorf("%+v: congestion %d, want %d", tc, cong, 1<<tc.j)
		}
		// Load: (j+1)·2^j on host level i, uniform 2^j elsewhere.
		load := make(map[int]int)
		for _, h := range e.NodeMap {
			load[h]++
		}
		for hv, l := range load {
			lvl := host.Level(hv)
			want := 1 << tc.j
			if lvl == tc.i {
				want = (tc.j + 1) << tc.j
			}
			if l != want {
				t.Errorf("%+v: load %d on level-%d node, want %d", tc, l, lvl, want)
			}
		}
	}
}

func TestLemma212Property5Bisection(t *testing.T) {
	// The Lemma 2.12(2) mechanism: a cut of Bn bisecting level i pulls back
	// through BkIntoBn to a cut of B_{n·2^j} bisecting the guest levels
	// i..i+j. Check the counting with the column cut (bisects every level).
	host := topology.NewButterfly(8)
	e := BkIntoBn(host, 1, 1)
	side := make([]bool, host.N())
	for v := 0; v < host.N(); v++ {
		side[v] = host.Column(v) < 4
	}
	hostCut := 0
	for _, he := range host.Edges() {
		if side[he.U] != side[he.V] {
			hostCut++
		}
	}
	induced := e.InducedGuestCut(side)
	// With uniform congestion 2^j, the induced guest cut is exactly
	// 2^j · hostCut.
	if induced != 2*hostCut {
		t.Errorf("induced guest cut %d, want %d", induced, 2*hostCut)
	}
}

func TestButterflyIntoMOS(t *testing.T) {
	// Lemma 2.11: dilation 1, uniform congestion exactly 2n/jk, level
	// loads per properties (3)–(5).
	for _, tc := range []struct{ n, j, k int }{
		{8, 2, 2}, {8, 2, 4}, {8, 4, 2}, {16, 2, 2}, {16, 4, 4}, {16, 2, 8},
	} {
		b := topology.NewButterfly(tc.n)
		e := ButterflyIntoMOS(b, tc.j, tc.k)
		if err := e.Validate(); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if got := e.Dilation(); got > 1 {
			t.Errorf("%+v: dilation %d", tc, got)
		}
		cong, uniform := e.UniformCongestion()
		if !uniform {
			t.Errorf("%+v: congestion not uniform", tc)
		}
		if want := 2 * tc.n / (tc.j * tc.k); cong != want {
			t.Errorf("%+v: congestion %d, want %d", tc, cong, want)
		}
	}
}

func TestButterflyIntoMOSLoads(t *testing.T) {
	// Property (5): when jk = n every M2 node receives exactly one node.
	b := topology.NewButterfly(16)
	mos := topology.NewMeshOfStars(4, 4)
	e := ButterflyIntoMOS(b, 4, 4)
	load := make(map[int]int)
	for _, h := range e.NodeMap {
		load[h]++
	}
	for _, v := range mos.M2Nodes() {
		if load[v] != 1 {
			t.Errorf("M2 node load %d, want 1 when jk = n", load[v])
		}
	}
	// Properties (3)/(4): uniform loads on M1 and M3.
	logK, logJ := 2, 2
	wantM1 := (16 / 4) * logK
	wantM3 := (16 / 4) * logJ
	for a := 0; a < 4; a++ {
		if load[mos.M1Node(a)] != wantM1 {
			t.Errorf("M1 load %d, want %d", load[mos.M1Node(a)], wantM1)
		}
		if load[mos.M3Node(a)] != wantM3 {
			t.Errorf("M3 load %d, want %d", load[mos.M3Node(a)], wantM3)
		}
	}
}

func TestBenesIntoButterfly(t *testing.T) {
	// Lemma 2.5's proof: load 1, congestion 1, dilation 3, I/O on L0.
	for _, n := range []int{4, 8, 16, 32} {
		host := topology.NewButterfly(n)
		e := BenesIntoButterfly(host)
		if err := e.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if e.Load() != 1 {
			t.Errorf("n=%d: load %d, want 1", n, e.Load())
		}
		if got := e.Congestion(); got != 1 {
			t.Errorf("n=%d: congestion %d, want 1", n, got)
		}
		if got := e.Dilation(); got != 3 {
			t.Errorf("n=%d: dilation %d, want 3", n, got)
		}
		// The Beneš inputs and outputs land on L0 and partition it.
		guest := topology.NewBenes(n / 2)
		seen := make(map[int]bool)
		var io []int
		for w := 0; w < guest.Inputs(); w++ {
			io = append(io, guest.Node(w, 0), guest.Node(w, guest.Levels()-1))
		}
		for _, v := range io {
			hv := e.NodeMap[v]
			if host.Level(hv) != 0 {
				t.Errorf("n=%d: I/O node mapped to level %d", n, host.Level(hv))
			}
			if seen[hv] {
				t.Errorf("n=%d: duplicate I/O image", n)
			}
			seen[hv] = true
		}
		if len(seen) != n {
			t.Errorf("n=%d: I/O covers %d of %d L0 nodes", n, len(seen), n)
		}
		in, out := BenesIOPartition(host)
		if len(in) != n/2 || len(out) != n/2 {
			t.Errorf("n=%d: partition sizes %d/%d", n, len(in), len(out))
		}
	}
}

func TestWrappedIntoCCC(t *testing.T) {
	// Lemma 3.3: congestion 2.
	for _, n := range []int{8, 16, 32} {
		w := topology.NewWrappedButterfly(n)
		c := topology.NewCCC(n)
		e := WrappedIntoCCC(w, c)
		if err := e.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if e.Load() != 1 {
			t.Errorf("n=%d: load %d", n, e.Load())
		}
		if got := e.Congestion(); got != 2 {
			t.Errorf("n=%d: congestion %d, want 2", n, got)
		}
		if got := e.Dilation(); got != 2 {
			t.Errorf("n=%d: dilation %d, want 2", n, got)
		}
	}
}

func TestButterflyIntoHypercube(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		b := topology.NewButterfly(n)
		e, h := ButterflyIntoHypercube(b)
		if err := e.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if e.Load() != 1 {
			t.Errorf("n=%d: load %d", n, e.Load())
		}
		if got := e.Dilation(); got > 2 {
			t.Errorf("n=%d: dilation %d, want ≤ 2", n, got)
		}
		if got := e.Congestion(); got > 4 {
			t.Errorf("n=%d: congestion %d, want a small constant", n, got)
		}
		if h.N() < b.N() {
			t.Errorf("host smaller than guest")
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	b := topology.NewButterfly(4)
	e := KnnIntoButterfly(b)

	bad := *e
	bad.NodeMap = append([]int{}, e.NodeMap...)
	bad.NodeMap[0] = -1
	if bad.Validate() == nil {
		t.Errorf("invalid node map not caught")
	}

	bad2 := *e
	bad2.Paths = append([][]int{}, e.Paths...)
	bad2.Paths[0] = []int{e.Paths[0][0]} // endpoint mismatch
	if bad2.Validate() == nil {
		t.Errorf("truncated path not caught")
	}

	bad3 := *e
	bad3.Paths = append([][]int{}, e.Paths...)
	p := append([]int{}, e.Paths[0]...)
	if len(p) >= 3 {
		p[1] = p[len(p)-1] // break an interior hop
		bad3.Paths[0] = p
		if bad3.Validate() == nil {
			t.Errorf("broken hop not caught")
		}
	}
}

func TestInducedGuestCutRandom(t *testing.T) {
	// For any host cut, the induced guest cut is at most
	// congestion × (host cut capacity).
	b := topology.NewButterfly(8)
	e := KnnIntoButterfly(b)
	cong := e.Congestion()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		side := make([]bool, b.N())
		for i := range side {
			side[i] = rng.Intn(2) == 0
		}
		hostCap := 0
		for _, he := range b.Edges() {
			if side[he.U] != side[he.V] {
				hostCap++
			}
		}
		if induced := e.InducedGuestCut(side); induced > cong*hostCap {
			t.Fatalf("induced %d exceeds congestion %d × capacity %d", induced, cong, hostCap)
		}
	}
}

func TestCompleteBisectionWidths(t *testing.T) {
	if CompleteBisectionWidth(4) != 4 || CompleteBisectionWidth(5) != 6 {
		t.Errorf("K_N widths wrong: %d, %d", CompleteBisectionWidth(4), CompleteBisectionWidth(5))
	}
	if DoubledCompleteBisectionWidth(4) != 8 {
		t.Errorf("2K_N width wrong")
	}
	// Cross-check against the exact solver... via graph enumeration on K5.
	g := topology.NewComplete(5)
	want := CompleteBisectionWidth(5)
	best := 1 << 30
	for mask := 0; mask < 32; mask++ {
		pc := 0
		for i := 0; i < 5; i++ {
			if mask>>i&1 == 1 {
				pc++
			}
		}
		if pc != 2 && pc != 3 {
			continue
		}
		capc := 0
		for _, e := range g.Edges() {
			if (mask>>e.U)&1 != (mask>>e.V)&1 {
				capc++
			}
		}
		if capc < best {
			best = capc
		}
	}
	if best != want {
		t.Errorf("BW(K5) = %d, formula %d", best, want)
	}
}

// KNIntoButterfly embeds the complete graph on all N = n(log n+1) nodes of
// Bn into Bn with load 1, using three-leg up/across/up routes. Its measured
// congestion gives the Ω(n) bisection lower bound and the Ω(k/log n) edge
// expansion lower bound of §1.4.
func KNIntoButterfly(b *topology.Butterfly) *Embedding {
	if b.Wraparound() {
		panic("embed: use KNIntoWrapped for Wn")
	}
	guest := topology.NewComplete(b.N())
	nodeMap := identity(b.N())
	paths := make([][]int, guest.M())
	for ei, e := range guest.Edges() {
		paths[ei] = threeLegPathBn(b, int(e.U), int(e.V))
	}
	return &Embedding{Guest: guest, Host: b.Graph, NodeMap: nodeMap, Paths: paths}
}

// KNIntoWrapped builds the Theorem 4.3 embedding of K_N into Wn
// (N = n·log n): the path for {u,v} climbs u's column to level 0, follows
// the length-(log n) rotated monotone path into v's column (arriving back at
// level 0), and descends v's column in decreasing level order. Congestion is
// O(N log n).
func KNIntoWrapped(w *topology.Butterfly) *Embedding {
	if !w.Wraparound() {
		panic("embed: KNIntoWrapped targets Wn")
	}
	guest := topology.NewComplete(w.N())
	nodeMap := identity(w.N())
	d := w.Dim()
	paths := make([][]int, guest.M())
	for ei, e := range guest.Edges() {
		u, v := int(e.U), int(e.V)
		wu, iu := w.Column(u), w.Level(u)
		wv, iv := w.Column(v), w.Level(v)
		path := make([]int, 0, iu+d+(d-iv)+1)
		// Leg 1: up u's column to level 0.
		for l := iu; l >= 0; l-- {
			path = append(path, w.Node(wu, l))
		}
		// Leg 2: the full-length monotone path to level log n ≡ 0 of v's
		// column (even when wu = wv, per the theorem's description).
		mono := w.RotatedMonotonePath(wu, wv, 0)
		path = append(path, mono[1:]...)
		// Leg 3: down from level log n ≡ 0 in decreasing level order to v.
		for l := d - 1; l >= iv; l-- {
			path = append(path, w.Node(wv, l))
		}
		paths[ei] = path
	}
	return &Embedding{Guest: guest, Host: w.Graph, NodeMap: nodeMap, Paths: paths}
}

// Validate checks structural soundness: every guest node maps to a host
// node, and every guest edge's path connects the images of its endpoints
// through host edges. It returns the first problem found.
func (e *Embedding) Validate() error {
	if len(e.NodeMap) != e.Guest.N() {
		return fmt.Errorf("embed: node map has %d entries for %d guest nodes", len(e.NodeMap), e.Guest.N())
	}
	for v, h := range e.NodeMap {
		if h < 0 || h >= e.Host.N() {
			return fmt.Errorf("embed: guest node %d maps to invalid host node %d", v, h)
		}
	}
	if len(e.Paths) != e.Guest.M() {
		return fmt.Errorf("embed: %d paths for %d guest edges", len(e.Paths), e.Guest.M())
	}
	for ei, p := range e.Paths {
		ge := e.Guest.Edge(ei)
		if len(p) == 0 {
			return fmt.Errorf("embed: empty path for guest edge %d", ei)
		}
		a, b := e.NodeMap[ge.U], e.NodeMap[ge.V]
		first, last := p[0], p[len(p)-1]
		if !(first == a && last == b) && !(first == b && last == a) {
			return fmt.Errorf("embed: path of guest edge %d connects %d–%d, want %d–%d",
				ei, first, last, a, b)
		}
		for i := 0; i+1 < len(p); i++ {
			if !e.Host.HasEdge(p[i], p[i+1]) {
				return fmt.Errorf("embed: path of guest edge %d uses non-edge {%d,%d}",
					ei, p[i], p[i+1])
			}
		}
	}
	return nil
}

// InducedGuestCut returns the number of guest edges whose paths cross the
// host cut given by side (true = in S). Removing the host cut edges
// disconnects exactly these guest edges — the counting at the heart of the
// §1.4 lower-bound technique.
func (e *Embedding) InducedGuestCut(side []bool) int {
	count := 0
	for _, p := range e.Paths {
		for i := 0; i+1 < len(p); i++ {
			if side[p[i]] != side[p[i+1]] {
				count++
				break
			}
		}
	}
	return count
}

// EdgeExpansionLowerBound computes the §1.4 expansion bound for a load-1
// embedding of the complete graph K_N: EE(host,k) ≥ ⌈k(N−k)/congestion⌉.
func (e *Embedding) EdgeExpansionLowerBound(k int) int {
	if e.Load() != 1 || e.Guest.N() != e.Host.N() {
		panic("embed: expansion lower bound needs a load-1 embedding onto an equal-size host")
	}
	c := e.Congestion()
	if c == 0 {
		return 0
	}
	n := e.Guest.N()
	return ceilDiv(k*(n-k), c)
}
