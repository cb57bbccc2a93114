// Package render draws butterfly networks: a Figure 1 style ASCII diagram
// with explicit straight and cross edges, and Graphviz DOT output of Bn and
// Wn.
package render

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/bitutil"
	"repro/internal/topology"
)

// ButterflyASCII renders Bn in the style of the paper's Figure 1: one row
// of nodes per level, column labels in binary, with straight edges drawn as
// vertical bars and cross edges as the spans they jump. Practical for
// n ≤ 16.
func ButterflyASCII(b *topology.Butterfly) string {
	if b.Wraparound() {
		panic("render: ASCII diagram is drawn for Bn")
	}
	n := b.Inputs()
	d := b.Dim()
	cell := 4 // characters per column
	width := n * cell

	var sb strings.Builder
	sb.WriteString("column ")
	for w := 0; w < n; w++ {
		sb.WriteString(fmt.Sprintf("%-*s", cell, bitutil.BitString(w, d)))
	}
	sb.WriteString("\n")

	nodeRow := func(level int) string {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for w := 0; w < n; w++ {
			row[w*cell] = 'o'
		}
		return fmt.Sprintf("lvl %-3d%s", level, string(row))
	}

	for i := 0; i <= d; i++ {
		sb.WriteString(nodeRow(i))
		sb.WriteString("\n")
		if i == d {
			break
		}
		// Between levels i and i+1: straight edges are vertical bars; a
		// cross edge from column w jumps 2^(d-i-1) columns (bit i+1 flips).
		span := 1 << (d - i - 1)
		// Draw a couple of rows suggesting the crossing pattern.
		for sub := 0; sub < 2; sub++ {
			row := make([]byte, width)
			for x := range row {
				row[x] = ' '
			}
			for w := 0; w < n; w++ {
				row[w*cell] = '|'
				// Indicate the cross edge direction with a slash midway
				// toward the partner column.
				partner := w ^ span
				dir := byte('\\')
				if partner < w {
					dir = '/'
				}
				offset := (sub + 1) * cell * span / 3
				x := w*cell + offset
				if partner < w {
					x = w*cell - offset
				}
				if x >= 0 && x < width && row[x] == ' ' {
					row[x] = dir
				}
			}
			sb.WriteString("       " + string(row) + "\n")
		}
	}
	return sb.String()
}

// ButterflyDOT renders Bn or Wn with ⟨column,level⟩ labels and level ranks.
func ButterflyDOT(w io.Writer, b *topology.Butterfly) {
	fmt.Fprintln(w, "graph butterfly {")
	fmt.Fprintln(w, "  rankdir=TB; node [shape=circle, fontsize=10];")
	for i := 0; i < b.Levels(); i++ {
		fmt.Fprintf(w, "  { rank=same;")
		for _, v := range b.LevelNodes(i) {
			fmt.Fprintf(w, " n%d;", v)
		}
		fmt.Fprintln(w, " }")
	}
	for v := 0; v < b.N(); v++ {
		fmt.Fprintf(w, "  n%d [label=\"%s,%d\"];\n", v, bitutil.BitString(b.Column(v), b.Dim()), b.Level(v))
	}
	for _, e := range b.Edges() {
		fmt.Fprintf(w, "  n%d -- n%d;\n", e.U, e.V)
	}
	fmt.Fprintln(w, "}")
}
