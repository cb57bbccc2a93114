package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden manifest files under testdata/")

// goldenManifests builds the four table families of the run manifest on
// tiny instances: everything is exactly solvable in milliseconds and —
// after scrubbing the solver telemetry — byte-deterministic across worker
// counts and machines.
func goldenManifests(t *testing.T) map[string]*obs.Manifest {
	t.Helper()
	budget := BisectionBudget{ExactNodes: 32}

	b8, err := ButterflyBisection(8, budget)
	if err != nil {
		t.Fatalf("ButterflyBisection(8): %v", err)
	}
	bisection := obs.NewManifest("golden").
		AddTable("bisection.bn", "BW(Bn) (Thm 2.20)", []BisectionReport{b8}).
		AddTable("bisection.wn", "BW(Wn) = n (Lemma 3.2)", []BisectionReport{WrappedBisection(8, budget)})

	expansion := obs.NewManifest("golden").
		AddTable("expansion.ee_bn", "EE(Bn,k) (§4.3)",
			ExpansionTable(BnEdge, 8, []int{1, 2}, ExpansionTableOptions{ExactNodes: 64})).
		AddTable("expansion.ee_wn", "EE(Wn,k) (§4.3)",
			ExpansionTable(WnEdge, 8, []int{1}, ExpansionTableOptions{ExactNodes: 64}))

	mosManifest := obs.NewManifest("golden").
		AddTable("mos", "BW(MOS_{j,j}, M2)/j² (Lemmas 2.17–2.19)", MOSConvergence([]int{2, 4, 8}))

	routing := obs.NewManifest("golden")
	routing.Seed = 1
	routing.AddTable("routing.random", "Random destinations on B8 (§1.2)",
		[]RoutingReport{RoutingExperiment(8, 1, route.RandomDestinations, RoutingOptions{Trials: 5})})

	return map[string]*obs.Manifest{
		"bisection": bisection,
		"expansion": expansion,
		"mos":       mosManifest,
		"routing":   routing,
	}
}

// telemetryFields are nondeterministic across runs (parallel
// branch-and-bound explores a schedule-dependent portion of the tree
// before the incumbent closes it) and are zeroed before golden
// comparison. The values themselves stay in real manifests.
var telemetryFields = map[string]bool{
	"explored":   true,
	"pruned":     true,
	"elapsed_ms": true,
}

// scrub walks decoded JSON and zeroes every telemetry field.
func scrub(v interface{}) {
	switch x := v.(type) {
	case map[string]interface{}:
		for k, val := range x {
			if telemetryFields[k] {
				x[k] = 0.0
				continue
			}
			scrub(val)
		}
	case []interface{}:
		for _, e := range x {
			scrub(e)
		}
	}
}

// scrubbedEncoding renders a manifest as indented JSON with telemetry
// fields zeroed.
func scrubbedEncoding(t *testing.T, m *obs.Manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatalf("encoding manifest: %v", err)
	}
	var generic interface{}
	if err := json.Unmarshal(buf.Bytes(), &generic); err != nil {
		t.Fatalf("re-decoding manifest: %v", err)
	}
	scrub(generic)
	out, err := json.MarshalIndent(generic, "", "  ")
	if err != nil {
		t.Fatalf("re-encoding manifest: %v", err)
	}
	return append(out, '\n')
}

func TestManifestGolden(t *testing.T) {
	for name, m := range goldenManifests(t) {
		t.Run(name, func(t *testing.T) {
			got := scrubbedEncoding(t, m)
			path := filepath.Join("testdata", "manifest_"+name+".json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatalf("writing golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run `go test ./internal/core -run TestManifestGolden -update` to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("manifest %s drifted from golden %s\ngot:\n%s\nwant:\n%s\n(if the schema change is intentional, re-run with -update and bump obs.ManifestVersion on incompatible changes)",
					name, path, got, want)
			}
		})
	}
}

// TestManifestRoundTrip checks that a real table manifest survives
// encode → DecodeManifest with its schema stamp verified, and that a
// foreign version is rejected rather than misread.
func TestManifestRoundTrip(t *testing.T) {
	m := obs.NewManifest("core-test")
	m.Seed = 1
	m.AddTable("mos", "mos", MOSConvergence([]int{2, 4}))

	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := obs.DecodeManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	if got.Schema != obs.ManifestSchema || got.Version != obs.ManifestVersion {
		t.Fatalf("schema stamp = %q v%d", got.Schema, got.Version)
	}
	if got.Table("mos") == nil {
		t.Fatal("mos table lost in round trip")
	}
	rows, ok := got.Table("mos").Rows.([]interface{})
	if !ok || len(rows) != 2 {
		t.Fatalf("mos rows decoded as %T", got.Table("mos").Rows)
	}
	row, ok := rows[0].(map[string]interface{})
	if !ok || row["j"] != 2.0 || row["capacity"] == nil {
		t.Fatalf("mos row[0] = %#v", rows[0])
	}

	tampered := bytes.Replace(buf.Bytes(),
		[]byte(`"version": 1`), []byte(`"version": 99`), 1)
	if !bytes.Contains(buf.Bytes(), []byte(`"version": 1`)) {
		t.Fatal("test assumption broken: version field not found in encoding")
	}
	if _, err := obs.DecodeManifest(bytes.NewReader(tampered)); err == nil {
		t.Fatal("DecodeManifest accepted a foreign version")
	}
}

// TestManifestCodecStoreRoundTrip pushes every golden manifest through
// the persistence stack — codec frame in memory, then store Put →
// reopen → Get — and demands the bytes back untouched. This is the
// contract butterflyd's warm start rests on: what the store returns is
// exactly what the solver rendered, or an error.
func TestManifestCodecStoreRoundTrip(t *testing.T) {
	bodies := map[string][]byte{}
	for name, m := range goldenManifests(t) {
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		bodies[name] = buf.Bytes()
	}

	// Codec layer alone: frame → decode is byte-faithful.
	var framed bytes.Buffer
	w, err := codec.NewWriter(&framed)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range bodies {
		if _, err := w.Write(codec.Record{Kind: codec.KindManifest, Key: name, Payload: body}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := codec.NewReader(bytes.NewReader(framed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for {
		rec, err := r.Next()
		if err != nil {
			break
		}
		if !bytes.Equal(rec.Payload, bodies[rec.Key]) {
			t.Fatalf("codec round trip altered manifest %q", rec.Key)
		}
		seen++
	}
	if seen != len(bodies) {
		t.Fatalf("decoded %d records, want %d", seen, len(bodies))
	}

	// Store layer: Put, reopen from disk, Get — still the same bytes, and
	// still a decodable, schema-stamped manifest.
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range bodies {
		if err := st.Put(name, body); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for name, body := range bodies {
		got, ok, err := st.Get(name)
		if err != nil || !ok {
			t.Fatalf("Get(%q): ok=%v err=%v", name, ok, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("store round trip altered manifest %q", name)
		}
		m, err := obs.DecodeManifest(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("stored manifest %q no longer decodes: %v", name, err)
		}
		if m.Schema != obs.ManifestSchema || m.Version != obs.ManifestVersion {
			t.Fatalf("stored manifest %q schema stamp = %q v%d", name, m.Schema, m.Version)
		}
	}
}

// TestFullReportManifestTables checks that AppendManifestTables emits
// every experiment family exactly once. It runs the quick report (the CI
// smoke path).
func TestFullReportManifestTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full report build in -short mode")
	}
	rep, err := BuildFullReport(ReportOptions{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("BuildFullReport: %v", err)
	}
	m := obs.NewManifest("paperrepro")
	rep.AppendManifestTables(m)

	want := []string{
		"structure", "bisection.bn", "bisection.sub_folklore", "mos",
		"bisection.wn", "bisection.ccc",
		"expansion.ee_wn", "expansion.ne_wn", "expansion.ee_bn", "expansion.ne_bn",
		"routing.random", "routing.faults", "benes", "variants", "bandwidth.directed",
		"transmutation", "dissemination", "emulation", "layout", "checks",
	}
	if len(m.Tables) != len(want) {
		names := make([]string, len(m.Tables))
		for i, tb := range m.Tables {
			names[i] = tb.Name
		}
		t.Fatalf("got %d tables %v, want %d", len(m.Tables), names, len(want))
	}
	for _, name := range want {
		if m.Table(name) == nil {
			t.Errorf("table %q missing from the full-report manifest", name)
		}
	}
	// The expansion tables absorb the enumerable-size exact rows: ee_wn
	// gets the n=16 row, ee_bn the n=8 row.
	for _, tc := range []struct {
		table string
		rows  int
	}{{"expansion.ee_wn", 2}, {"expansion.ee_bn", 2}} {
		rows, ok := m.Table(tc.table).Rows.([]ExpansionRow)
		if !ok {
			t.Fatalf("%s rows are %T", tc.table, m.Table(tc.table).Rows)
		}
		if len(rows) < tc.rows {
			t.Errorf("%s has %d rows, want ≥ %d (exact-small rows not merged?)", tc.table, len(rows), tc.rows)
		}
	}
}
