package render

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

func TestButterflyASCII(t *testing.T) {
	b := topology.NewButterfly(8)
	out := ButterflyASCII(b)
	if !strings.Contains(out, "000") || !strings.Contains(out, "111") {
		t.Errorf("missing column labels:\n%s", out)
	}
	// 4 node rows (levels 0..3).
	if got := strings.Count(out, "lvl"); got != 4 {
		t.Errorf("%d level rows, want 4:\n%s", got, out)
	}
	// 32 node markers.
	if got := strings.Count(out, "o"); got < 32 {
		t.Errorf("%d node markers, want ≥ 32", got)
	}
	// Edge glyphs present.
	if !strings.Contains(out, "|") || !strings.Contains(out, "\\") {
		t.Errorf("missing edge glyphs:\n%s", out)
	}
}

func TestButterflyASCIIPanicsOnWn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Wn should panic")
		}
	}()
	ButterflyASCII(topology.NewWrappedButterfly(8))
}

func TestButterflyDOT(t *testing.T) {
	b := topology.NewWrappedButterfly(4)
	var sb strings.Builder
	ButterflyDOT(&sb, b)
	out := sb.String()
	if strings.Count(out, "rank=same") != b.Levels() {
		t.Errorf("rank groups %d, want %d", strings.Count(out, "rank=same"), b.Levels())
	}
	if strings.Count(out, " -- ") != b.M() {
		t.Errorf("edge lines %d, want %d", strings.Count(out, " -- "), b.M())
	}
	if !strings.Contains(out, `label="00,0"`) {
		t.Errorf("column/level labels missing:\n%s", out)
	}
}
