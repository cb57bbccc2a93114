package embed

import (
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/topology"
)

// KnnIntoButterfly builds the Lemma 3.1 embedding of K_{n,n} into Bn: left
// node i maps to input ⟨i,0⟩, right node j to output ⟨j,log n⟩, and the edge
// (i,j) follows the unique monotone path between them (Lemma 2.3). The
// embedding has load 1 on the inputs and outputs, congestion n/2, and
// dilation log n.
func KnnIntoButterfly(b *topology.Butterfly) *Embedding {
	if b.Wraparound() {
		panic("embed: K_{n,n} embedding targets Bn")
	}
	n := b.Inputs()
	guest := topology.NewCompleteBipartite(n, n)
	nodeMap := make([]int, guest.N())
	for i := 0; i < n; i++ {
		nodeMap[i] = b.Node(i, 0)
		nodeMap[n+i] = b.Node(i, b.Dim())
	}
	paths := make([][]int, guest.M())
	for ei, e := range guest.Edges() {
		left, right := int(e.U), int(e.V)-n
		paths[ei] = b.MonotonePath(left, right)
	}
	return &Embedding{Guest: guest, Host: b.Graph, NodeMap: nodeMap, Paths: paths}
}

// threeLegPathBn routes in Bn from node u up its column to level 0, across
// the monotone path to the output in v's column, and back up v's column to
// v. This is the Bn adaptation of the Theorem 4.3 route.
func threeLegPathBn(b *topology.Butterfly, u, v int) []int {
	wu, iu := b.Column(u), b.Level(u)
	wv, iv := b.Column(v), b.Level(v)
	path := make([]int, 0, iu+b.Dim()+(b.Dim()-iv)+1)
	for l := iu; l >= 0; l-- {
		path = append(path, b.Node(wu, l))
	}
	mono := b.MonotonePath(wu, wv)
	path = append(path, mono[1:]...)
	for l := b.Dim() - 1; l >= iv; l-- {
		path = append(path, b.Node(wv, l))
	}
	return path
}

// DoubledCompleteIntoButterfly embeds 2K_N into Bn (the §1.4 argument for
// BW(Bn) ≥ n/2): the two parallel edges between u and v follow the two
// opposite-direction three-leg routes, u→v and v→u.
func DoubledCompleteIntoButterfly(b *topology.Butterfly) *Embedding {
	if b.Wraparound() {
		panic("embed: doubled complete embedding targets Bn")
	}
	guest := topology.NewDoubledComplete(b.N())
	nodeMap := identity(b.N())
	paths := make([][]int, guest.M())
	second := make(map[[2]int32]bool)
	for ei, e := range guest.Edges() {
		key := [2]int32{e.U, e.V}
		if !second[key] {
			paths[ei] = threeLegPathBn(b, int(e.U), int(e.V))
			second[key] = true
		} else {
			paths[ei] = reversePath(threeLegPathBn(b, int(e.V), int(e.U)))
		}
	}
	return &Embedding{Guest: guest, Host: b.Graph, NodeMap: nodeMap, Paths: paths}
}

// BkIntoBn builds the Lemma 2.10 embedding π of B_{n·2^j} into Bn with
// parameters i and j: guest levels below i map level-to-level, the j+1
// guest levels i..i+j collapse onto host level i (dropping the middle j
// column bits), and the remaining levels shift down by j. It has dilation 1
// (collapsed edges become zero-length paths), uniform congestion 2^j, and
// the load profile of properties (3)–(5).
func BkIntoBn(host *topology.Butterfly, i, j int) *Embedding {
	if host.Wraparound() {
		panic("embed: BkIntoBn targets Bn")
	}
	if i < 0 || i > host.Dim() || j < 0 {
		panic(fmt.Sprintf("embed: bad BkIntoBn parameters i=%d j=%d", i, j))
	}
	dHost := host.Dim()
	dGuest := dHost + j
	guest := topology.NewButterfly(1 << dGuest)

	mapColumn := func(w int) int {
		pre := bitutil.Prefix(w, dGuest, i)
		suf := bitutil.Suffix(w, dGuest, dHost-i)
		return bitutil.Compose(pre, i, 0, 0, suf, dHost-i)
	}
	mapLevel := func(l int) int {
		switch {
		case l < i:
			return l
		case l <= i+j:
			return i
		default:
			return l - j
		}
	}
	nodeMap := make([]int, guest.N())
	for v := 0; v < guest.N(); v++ {
		nodeMap[v] = host.Node(mapColumn(guest.Column(v)), mapLevel(guest.Level(v)))
	}
	paths := make([][]int, guest.M())
	for ei, e := range guest.Edges() {
		a, b := nodeMap[e.U], nodeMap[e.V]
		if a == b {
			paths[ei] = []int{a}
		} else {
			paths[ei] = []int{a, b}
		}
	}
	return &Embedding{Guest: guest.Graph, Host: host.Graph, NodeMap: nodeMap, Paths: paths}
}

// ButterflyIntoMOS builds the Lemma 2.11 embedding of Bn into MOS_{j,k}
// (jk must divide n): the first log k levels map onto M1 by column-suffix
// class, the last log j levels onto M3 by column-prefix class, and the
// middle levels onto M2 by (suffix, prefix) class. Dilation 1, uniform
// congestion 2n/jk.
func ButterflyIntoMOS(b *topology.Butterfly, j, k int) *Embedding {
	if b.Wraparound() {
		panic("embed: ButterflyIntoMOS targets Bn")
	}
	if !bitutil.IsPow2(j) || !bitutil.IsPow2(k) || j < 2 || k < 2 {
		panic("embed: j and k must be powers of two ≥ 2")
	}
	n := b.Inputs()
	if n%(j*k) != 0 {
		panic(fmt.Sprintf("embed: jk = %d must divide n = %d", j*k, n))
	}
	logJ, logK := bitutil.Log2(j), bitutil.Log2(k)
	d := b.Dim()
	mos := topology.NewMeshOfStars(j, k)

	nodeMap := make([]int, b.N())
	for v := 0; v < b.N(); v++ {
		w, l := b.Column(v), b.Level(v)
		s := bitutil.Suffix(w, d, logJ) // M1 class: component of Bn[0, log n − log j]
		p := bitutil.Prefix(w, d, logK) // M3 class: component of Bn[log k, log n]
		switch {
		case l <= logK-1:
			nodeMap[v] = mos.M1Node(s)
		case l <= d-logJ:
			nodeMap[v] = mos.M2Node(s, p)
		default:
			nodeMap[v] = mos.M3Node(p)
		}
	}
	paths := make([][]int, b.M())
	for ei, e := range b.Edges() {
		a, bb := nodeMap[e.U], nodeMap[e.V]
		if a == bb {
			paths[ei] = []int{a}
		} else {
			paths[ei] = []int{a, bb}
		}
	}
	return &Embedding{Guest: b.Graph, Host: mos.Graph, NodeMap: nodeMap, Paths: paths}
}

func identity(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func reversePath(p []int) []int {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
	return p
}
