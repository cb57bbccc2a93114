// Package flow implements maximum flow (Dinic's algorithm) on unit- and
// integer-capacity networks, plus the node-splitting reduction for vertex
// connectivity. The §1.6 Hong–Kung separator bound and the Menger-style
// disjoint-path checks of the experiments are built on it.
package flow

import "fmt"

// Network is a directed flow network under construction.
type Network struct {
	n     int
	heads []int32 // per arc: head node
	caps  []int32 // per arc: remaining capacity (paired with reverse arc)
	adj   [][]int32
}

// NewNetwork creates a flow network with n nodes and no arcs.
func NewNetwork(n int) *Network {
	return &Network{n: n, adj: make([][]int32, n)}
}

// AddArc adds a directed arc u→v with the given capacity (and its residual
// reverse arc with capacity 0). It returns the arc id.
func (f *Network) AddArc(u, v, capacity int) int {
	if u < 0 || u >= f.n || v < 0 || v >= f.n || capacity < 0 {
		panic(fmt.Sprintf("flow: bad arc %d→%d cap %d", u, v, capacity))
	}
	id := len(f.heads)
	f.heads = append(f.heads, int32(v), int32(u))
	f.caps = append(f.caps, int32(capacity), 0)
	f.adj[u] = append(f.adj[u], int32(id))
	f.adj[v] = append(f.adj[v], int32(id+1))
	return id
}

// AddEdge adds an undirected unit edge as a pair of unit arcs.
func (f *Network) AddEdge(u, v, capacity int) {
	f.AddArc(u, v, capacity)
	f.AddArc(v, u, capacity)
}

// MaxFlow computes the maximum s→t flow with Dinic's algorithm, mutating
// the residual capacities.
func (f *Network) MaxFlow(s, t int) int {
	if s == t {
		panic("flow: source equals sink")
	}
	total := 0
	level := make([]int32, f.n)
	iter := make([]int, f.n)
	queue := make([]int32, 0, f.n)

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, aid := range f.adj[u] {
				v := f.heads[aid]
				if f.caps[aid] > 0 && level[v] < 0 {
					level[v] = level[u] + 1
					queue = append(queue, v)
				}
			}
		}
		return level[t] >= 0
	}

	var dfs func(u int, limit int32) int32
	dfs = func(u int, limit int32) int32 {
		if u == t {
			return limit
		}
		for ; iter[u] < len(f.adj[u]); iter[u]++ {
			aid := f.adj[u][iter[u]]
			v := f.heads[aid]
			if f.caps[aid] <= 0 || level[v] != level[u]+1 {
				continue
			}
			pushed := dfs(int(v), min32(limit, f.caps[aid]))
			if pushed > 0 {
				f.caps[aid] -= pushed
				f.caps[aid^1] += pushed
				return pushed
			}
		}
		return 0
	}

	const inf = int32(1) << 30
	for bfs() {
		for i := range iter {
			iter[i] = 0
		}
		for {
			pushed := dfs(s, inf)
			if pushed == 0 {
				break
			}
			total += int(pushed)
		}
	}
	return total
}

// MinCutSide returns, after MaxFlow, the set of nodes reachable from s in
// the residual network (the source side of a minimum cut).
func (f *Network) MinCutSide(s int) []bool {
	side := make([]bool, f.n)
	side[s] = true
	queue := []int32{int32(s)}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, aid := range f.adj[u] {
			v := f.heads[aid]
			if f.caps[aid] > 0 && !side[v] {
				side[v] = true
				queue = append(queue, v)
			}
		}
	}
	return side
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// VertexSeparator computes a minimum set of nodes whose removal cuts every
// path from any source to any target in the undirected graph given by the
// adjacency function. Nodes listed in sources/targets may themselves be
// chosen (matching the Hong–Kung formulation, where D may intersect S).
// It uses the standard node-splitting reduction: node v becomes v_in→v_out
// with capacity 1; edges get infinite capacity in both directions; a super
// source feeds each source's in-node and each target's out-node drains to a
// super sink.
//
// adjacency: neighbors(v) lists the neighbors of v, 0 ≤ v < n.
func VertexSeparator(n int, neighbors func(v int) []int32, sources, targets []int) []int {
	const inf = 1 << 20
	// Node ids: v_in = 2v, v_out = 2v+1; super source 2n, super sink 2n+1.
	f := NewNetwork(2*n + 2)
	s, t := 2*n, 2*n+1
	splitArc := make([]int, n)
	for v := 0; v < n; v++ {
		splitArc[v] = f.AddArc(2*v, 2*v+1, 1)
		for _, u := range neighbors(v) {
			f.AddArc(2*v+1, 2*int(u), inf)
		}
	}
	for _, v := range sources {
		f.AddArc(s, 2*v, inf)
	}
	for _, v := range targets {
		f.AddArc(2*v+1, t, inf)
	}
	f.MaxFlow(s, t)
	side := f.MinCutSide(s)
	var sep []int
	for v := 0; v < n; v++ {
		// v is in the separator iff its split arc crosses the cut.
		if side[2*v] && !side[2*v+1] {
			sep = append(sep, v)
		}
	}
	return sep
}

// EdgeConnectivity computes the minimum number of edges separating the
// source set from the target set in an undirected unit-capacity graph.
func EdgeConnectivity(n int, neighbors func(v int) []int32, sources, targets []int) int {
	const inf = 1 << 20
	f := NewNetwork(n + 2)
	s, t := n, n+1
	for v := 0; v < n; v++ {
		for _, u := range neighbors(v) {
			// Each undirected edge (including parallels) appears once with
			// v < u across the adjacency lists.
			if v < int(u) {
				f.AddEdge(v, int(u), 1)
			}
		}
	}
	for _, v := range sources {
		f.AddArc(s, v, inf)
	}
	for _, v := range targets {
		f.AddArc(v, t, inf)
	}
	return f.MaxFlow(s, t)
}
