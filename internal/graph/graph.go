// Package graph provides the undirected-graph substrate used by every other
// package in this repository: a compact CSR (compressed sparse row)
// representation with a mutable builder, plus traversal, component,
// distance, and subgraph utilities.
//
// Graphs here are undirected and may contain parallel edges (the paper's
// lower-bound argument for BW(Bn) embeds the doubled complete graph 2K_N,
// and cut capacities count parallel edges separately). Self-loops are
// rejected: no network in the paper has them and allowing them would
// complicate cut accounting for no benefit.
package graph

import "fmt"

// Edge is an undirected edge between nodes U and V, stored with U ≤ V.
type Edge struct {
	U, V int32
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph on n nodes, numbered 0..n−1.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// AddEdge records an undirected edge {u,v}. Parallel edges are kept.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge endpoint out of range: {%d,%d} with n=%d", u, v, b.n))
	}
	if u == v {
		panic("graph: self-loops are not supported")
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{int32(u), int32(v)})
}

// Build freezes the builder into an immutable Graph. The builder may be
// reused afterwards; further AddEdge calls do not affect the built graph.
func (b *Builder) Build() *Graph {
	g := &Graph{
		n:     b.n,
		edges: make([]Edge, len(b.edges)),
	}
	copy(g.edges, b.edges)

	deg := make([]int32, b.n+1)
	for _, e := range g.edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for i := 0; i < b.n; i++ {
		deg[i+1] += deg[i]
	}
	g.adjStart = deg
	g.adjNode = make([]int32, 2*len(g.edges))
	g.adjEdge = make([]int32, 2*len(g.edges))
	fill := make([]int32, b.n)
	for ei, e := range g.edges {
		pu := g.adjStart[e.U] + fill[e.U]
		g.adjNode[pu], g.adjEdge[pu] = e.V, int32(ei)
		fill[e.U]++
		pv := g.adjStart[e.V] + fill[e.V]
		g.adjNode[pv], g.adjEdge[pv] = e.U, int32(ei)
		fill[e.V]++
	}
	return g
}

// Graph is an immutable undirected multigraph in CSR form.
type Graph struct {
	n        int
	edges    []Edge
	adjStart []int32 // length n+1; adjacency of node v is indices adjStart[v]..adjStart[v+1]
	adjNode  []int32 // neighbor endpoint per adjacency slot
	adjEdge  []int32 // edge index per adjacency slot

	// orbits and orbit are the node classes the constructor declared (see
	// DeclareOrbits); orbits is 0 when it declared none.
	orbits int
	orbit  func(v int) int
}

// DeclareOrbits records the constructor's partition of the nodes into
// classes 0..classes−1, class(v) being node v's, and returns g. The lowest
// node of a class is its representative, and every node must be carried
// onto its representative by an automorphism that maps every class onto
// itself: a minimum over node sets is then found among the sets that
// contain some class's representative and no node of a lower class. One
// class declares the graph vertex-transitive. A constructor calls it on
// the graph it has just built, before sharing it; a false declaration
// makes exact searches miss optima. class is called only when a search
// needs the classes, so the declaration costs a build nothing per node.
func (g *Graph) DeclareOrbits(classes int, class func(v int) int) *Graph {
	if classes < 1 {
		panic("graph: a declaration needs at least one node class")
	}
	g.orbits, g.orbit = classes, class
	return g
}

// Orbits returns the number of node classes the graph's constructor
// declared, or 0 when it declared none: every graph built directly,
// subgraphs of declared ones included.
func (g *Graph) Orbits() int { return g.orbits }

// Orbit returns node v's declared class, in [0, Orbits()). It panics on a
// graph with no declared classes.
func (g *Graph) Orbit(v int) int {
	if g.orbit == nil {
		panic("graph: no node classes declared")
	}
	return g.orbit(v)
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges (parallel edges counted separately).
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge list. The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the endpoints of edge index ei.
func (g *Graph) Edge(ei int) Edge { return g.edges[ei] }

// Degree returns the degree of node v (parallel edges counted separately).
func (g *Graph) Degree(v int) int {
	return int(g.adjStart[v+1] - g.adjStart[v])
}

// Neighbors returns the neighbor endpoints of v (with multiplicity). The
// returned slice aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adjNode[g.adjStart[v]:g.adjStart[v+1]]
}

// HasEdge reports whether at least one edge joins u and v.
func (g *Graph) HasEdge(u, v int) bool {
	// Scan the smaller adjacency list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	for _, w := range g.Neighbors(u) {
		if int(w) == v {
			return true
		}
	}
	return false
}

// EdgeMultiplicity returns the number of parallel edges joining u and v.
func (g *Graph) EdgeMultiplicity(u, v int) int {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	count := 0
	for _, w := range g.Neighbors(u) {
		if int(w) == v {
			count++
		}
	}
	return count
}

// MinDegree and MaxDegree return the extreme degrees, or 0 for empty graphs.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// MaxDegree returns the maximum degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// BFS computes single-source shortest-path distances (in edges) from src.
// Unreachable nodes get distance −1.
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, g.n)
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		for _, w := range g.Neighbors(int(v)) {
			if dist[w] < 0 {
				dist[w] = dv + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum BFS distance from v to any node, or −1 if
// some node is unreachable from v.
func (g *Graph) Eccentricity(v int) int {
	dist := g.BFS(v)
	ecc := 0
	for _, d := range dist {
		if d < 0 {
			return -1
		}
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// Diameter returns the maximum distance between any pair of nodes, or −1 if
// the graph is disconnected. It runs one BFS per node, which is adequate for
// the experiment sizes that need it.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return 0
	}
	diam := 0
	for v := 0; v < g.n; v++ {
		ecc := g.Eccentricity(v)
		if ecc < 0 {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// Components returns a component id per node (ids are 0-based and dense) and
// the number of components.
func (g *Graph) Components() (comp []int32, count int) {
	comp = make([]int32, g.n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int32, 0, g.n)
	for v := 0; v < g.n; v++ {
		if comp[v] >= 0 {
			continue
		}
		id := int32(count)
		count++
		comp[v] = id
		queue = append(queue[:0], int32(v))
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for _, w := range g.Neighbors(int(x)) {
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	return comp, count
}

// IsConnected reports whether the graph is connected (true for n ≤ 1).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	_, count := g.Components()
	return count == 1
}

// Subgraph is an induced subgraph together with the mapping back to the
// parent graph.
type Subgraph struct {
	*Graph
	// ToParent[i] is the parent-graph node represented by subgraph node i.
	ToParent []int32
	// FromParent maps parent nodes to subgraph nodes, or −1 for nodes
	// outside the subgraph.
	FromParent []int32
}

// InducedSubgraph returns the subgraph induced by the given parent nodes.
// Duplicate node entries panic: they indicate a caller bug that would
// silently distort cut capacities.
func (g *Graph) InducedSubgraph(nodes []int) *Subgraph {
	fromParent := make([]int32, g.n)
	for i := range fromParent {
		fromParent[i] = -1
	}
	toParent := make([]int32, len(nodes))
	for i, v := range nodes {
		if fromParent[v] >= 0 {
			panic(fmt.Sprintf("graph: duplicate node %d in InducedSubgraph", v))
		}
		fromParent[v] = int32(i)
		toParent[i] = int32(v)
	}
	b := NewBuilder(len(nodes))
	for _, e := range g.edges {
		u, v := fromParent[e.U], fromParent[e.V]
		if u >= 0 && v >= 0 {
			b.AddEdge(int(u), int(v))
		}
	}
	sg := b.Build()
	return &Subgraph{Graph: sg, ToParent: toParent, FromParent: fromParent}
}

// DegreeHistogram returns a map from degree to the number of nodes with that
// degree.
func (g *Graph) DegreeHistogram() map[int]int {
	hist := make(map[int]int)
	for v := 0; v < g.n; v++ {
		hist[g.Degree(v)]++
	}
	return hist
}
