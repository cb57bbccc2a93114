package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBinariesSmoke runs every executable and example once with fast
// arguments, pinning the end-to-end wiring (flag parsing, report assembly,
// rendering). Skipped under -short: each run pays a `go run` compile.
func TestBinariesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke runs")
	}
	cases := [][]string{
		{"./cmd/bwtable", "-max-log", "12"},
		{"./cmd/mostable", "-max-j", "64"},
		{"./cmd/exptable", "-n", "64", "-max-d", "2"},
		{"./cmd/routesim", "-max-log", "5"},
		{"./cmd/routesim", "-max-log", "5", "-trials", "10", "-timeout", "30s"},
		{"./cmd/butterfly", "-n", "8"},
		{"./cmd/butterfly", "-dot", "-n", "4"},
		{"./cmd/figdata", "-series", "bisection", "-max-log", "12"},
		{"./cmd/figdata", "-series", "mos", "-max-j", "64"},
		{"./cmd/paperrepro", "-quick"},
		{"./examples/quickstart"},
		{"./examples/bisection083"},
		{"./examples/expansion-survey"},
		{"./examples/permutation-routing"},
		{"./examples/dissemination"},
		{"./examples/vlsi-layout"},
	}
	for _, c := range cases {
		c := c
		t.Run(c[0], func(t *testing.T) {
			args := append([]string{"run"}, c...)
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				t.Fatalf("go run %v: %v\n%s", c, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("go run %v produced no output", c)
			}
		})
	}
}

// buildBinary compiles one cmd into the test's temp dir and returns the
// executable path (go run swallows the program's exit code, so the
// exit-code tests must exec the binary directly).
func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	bin := t.TempDir() + "/" + pkg[strings.LastIndex(pkg, "/")+1:]
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// TestBinariesRejectNonsenseFlags pins the fail-fast contract: flag values
// that request impossible work (zero trials, negative workers, out-of-range
// size exponents) exit with code 2 and usage, like flag-parse errors, and
// never reach the engines. Skipped under -short: each case pays a compile.
func TestBinariesRejectNonsenseFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke runs")
	}
	// No rejected run may create this store directory.
	storeDir := filepath.Join(t.TempDir(), "store")
	cases := [][]string{
		{"./cmd/routesim", "-trials", "0"},
		{"./cmd/routesim", "-trials", "-5"},
		{"./cmd/routesim", "-workers", "-1"},
		{"./cmd/routesim", "-max-log", "25"},
		{"./cmd/exptable", "-n", "100"},
		{"./cmd/exptable", "-kmax", "0"},
		{"./cmd/exptable", "-workers", "-2"},
		{"./cmd/exptable", "-max-d", "0"},
		{"./cmd/bwtable", "-max-log", "49"},
		{"./cmd/bwtable", "-exact-nodes", "-1"},
		{"./cmd/figdata", "-max-log", "49"},
		{"./cmd/butterflyd", "-addr", "127.0.0.1:18080", "-peers", "127.0.0.1:18081"},
		{"./cmd/butterflyd", "-precompute", "bn:3-4"},
		{"./cmd/butterflyd", "-precompute", "bogus", "-store", storeDir},
	}
	bins := make(map[string]string)
	for _, c := range cases {
		if _, ok := bins[c[0]]; !ok {
			bins[c[0]] = buildBinary(t, c[0])
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c[0]+" "+c[1]+" "+c[2], func(t *testing.T) {
			out, err := exec.Command(bins[c[0]], c[1:]...).CombinedOutput()
			exitErr, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("%v: err=%v (want exit code 2)\n%s", c, err, out)
			}
			if code := exitErr.ExitCode(); code != 2 {
				t.Fatalf("%v: exit code %d, want 2\n%s", c, code, out)
			}
			if !strings.Contains(string(out), "usage") {
				t.Fatalf("%v: rejection does not show usage:\n%s", c, out)
			}
			if _, err := os.Stat(storeDir); !os.IsNotExist(err) {
				t.Fatalf("%v: rejection left a store directory behind (stat: %v)", c, err)
			}
		})
	}
}

// TestExptableTimeoutExitsCleanly is the cancelled-solver smoke: an exact
// budget far beyond what 1s can certify must still produce the full table
// (incumbent rows flagged non-exact) and exit 0 — the runaway-search
// failure mode this PR removes.
func TestExptableTimeoutExitsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke runs")
	}
	start := time.Now()
	out, err := exec.Command("go", "run", "./cmd/exptable",
		"-n", "64", "-max-d", "2", "-exact-nodes", "512", "-kmax", "32",
		"-timeout", "1s").CombinedOutput()
	if err != nil {
		t.Fatalf("timed-out exptable failed: %v\n%s", err, out)
	}
	if took := time.Since(start); took > 2*time.Minute {
		t.Fatalf("timed-out exptable took %v", took)
	}
	if len(out) == 0 {
		t.Fatal("timed-out exptable produced no output")
	}
}
