package topology

import (
	"fmt"

	"repro/internal/graph"
)

// MeshOfStars is the j×k mesh of stars MOS_{j,k} (§2.1): the complete
// bipartite graph K_{j,k} with every edge subdivided by a middle node. Its
// three levels are M1 (j nodes), M2 (j·k middle nodes) and M3 (k nodes);
// the middle node M2(a,b) is adjacent exactly to M1(a) and M3(b).
type MeshOfStars struct {
	*graph.Graph
	j, k int
}

// NewMeshOfStars constructs MOS_{j,k} for j, k ≥ 1.
func NewMeshOfStars(j, k int) *MeshOfStars {
	if j < 1 || k < 1 {
		panic(fmt.Sprintf("topology: mesh of stars dimensions %d×%d out of range", j, k))
	}
	m := &MeshOfStars{j: j, k: k}
	b := graph.NewBuilder(j + j*k + k)
	for a := 0; a < j; a++ {
		for c := 0; c < k; c++ {
			mid := m.M2Node(a, c)
			b.AddEdge(m.M1Node(a), mid)
			b.AddEdge(mid, m.M3Node(c))
		}
	}
	m.Graph = b.Build()
	return m
}

// J returns the size of M1.
func (m *MeshOfStars) J() int { return m.j }

// K returns the size of M3.
func (m *MeshOfStars) K() int { return m.k }

// M1Node returns the id of the a-th M1 node, 0 ≤ a < j.
func (m *MeshOfStars) M1Node(a int) int {
	if a < 0 || a >= m.j {
		panic("topology: M1 index out of range")
	}
	return a
}

// M2Node returns the id of the middle node on the path from M1(a) to M3(b).
func (m *MeshOfStars) M2Node(a, b int) int {
	if a < 0 || a >= m.j || b < 0 || b >= m.k {
		panic("topology: M2 index out of range")
	}
	return m.j + a*m.k + b
}

// M3Node returns the id of the b-th M3 node, 0 ≤ b < k.
func (m *MeshOfStars) M3Node(b int) int {
	if b < 0 || b >= m.k {
		panic("topology: M3 index out of range")
	}
	return m.j + m.j*m.k + b
}

// M2Nodes returns the ids of all middle nodes.
func (m *MeshOfStars) M2Nodes() []int {
	nodes := make([]int, m.j*m.k)
	for i := range nodes {
		nodes[i] = m.j + i
	}
	return nodes
}
