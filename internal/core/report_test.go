package core

import (
	"strings"
	"testing"
)

func TestWriteFullReportQuick(t *testing.T) {
	rep, err := BuildFullReport(ReportOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	RenderFullReport(&sb, rep)
	out := sb.String()
	for _, section := range []string{
		"E1:", "E2:", "E3:", "E4:", "E5:", "E6/E7:", "E8:", "E9:",
		"E12:", "E13:", "E14:", "E15:", "E16:", "E17:",
	} {
		if !strings.Contains(out, "=== "+section) {
			t.Errorf("report missing section %q", section)
		}
	}
	// The headline artifacts must appear.
	for _, needle := range []string{
		"0.8284", // theory limit 2(√2−1)
		"0.4142", // √2−1
		"inputs bisected: true",
		"permutations routed edge-disjointly",
		"Thompson",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("report missing %q", needle)
		}
	}
	// No experiment may have errored visibly.
	if strings.Contains(out, "error") || strings.Contains(out, "panic") {
		t.Errorf("report contains an error marker")
	}
}

func TestLayoutAreaLowerBound(t *testing.T) {
	if LayoutAreaLowerBound(8) != 64 {
		t.Errorf("Thompson bound wrong")
	}
}
