package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/obs"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, key string, payload []byte) {
	t.Helper()
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func mustGet(t *testing.T, s *Store, key string) []byte {
	t.Helper()
	p, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if !ok {
		t.Fatalf("Get(%q): missing", key)
	}
	return p
}

func TestPutGetSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	body := []byte(`{"schema":"repro/run-manifest","version":1}`)
	mustPut(t, s, "bisection?network=bn&n=8", body)
	mustPut(t, s, "bisection?network=wn&n=8", []byte("second"))
	// Overwrite: the latest record wins.
	mustPut(t, s, "bisection?network=bn&n=8", body)
	if got := mustGet(t, s, "bisection?network=bn&n=8"); !bytes.Equal(got, body) {
		t.Fatalf("Get = %q", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The warm-start property: a fresh process (a fresh Open) sees the
	// same bytes.
	s2 := mustOpen(t, dir, Options{})
	if got := mustGet(t, s2, "bisection?network=bn&n=8"); !bytes.Equal(got, body) {
		t.Fatalf("after reopen: %q", got)
	}
	if s2.Len() != 2 {
		t.Fatalf("after reopen Len = %d", s2.Len())
	}
	if _, ok, err := s2.Get("never-stored"); ok || err != nil {
		t.Fatalf("missing key: ok=%v err=%v", ok, err)
	}
}

func TestRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	s := mustOpen(t, dir, Options{})
	s.rotateAt = 256
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 20; i++ {
		mustPut(t, s, fmt.Sprintf("key-%02d", i), payload)
	}
	ids, err := segmentIDs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", ids)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	if s2.Len() != 20 {
		t.Fatalf("reopened Len = %d, want 20", s2.Len())
	}
	for i := 0; i < 20; i++ {
		if got := mustGet(t, s2, fmt.Sprintf("key-%02d", i)); !bytes.Equal(got, payload) {
			t.Fatalf("key-%02d corrupted after rotation+reopen", i)
		}
	}
}

// TestTornTailRecovers simulates an append crash: the newest segment ends
// mid-record. Open truncates back to the last whole record, keeps every
// earlier key, and the store accepts fresh appends.
func TestTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, "intact-1", []byte("aaa"))
	mustPut(t, s, "intact-2", []byte("bbb"))
	mustPut(t, s, "torn", []byte("this record will be half-written"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, 1)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	tornBefore := metricTornTails.Value()
	s2 := mustOpen(t, dir, Options{})
	if metricTornTails.Value() != tornBefore+1 {
		t.Fatal("torn-tail counter did not advance")
	}
	if s2.Len() != 2 {
		t.Fatalf("Len after torn-tail recovery = %d, want 2", s2.Len())
	}
	if got := mustGet(t, s2, "intact-2"); string(got) != "bbb" {
		t.Fatalf("intact-2 = %q", got)
	}
	if _, ok, _ := s2.Get("torn"); ok {
		t.Fatal("half-written record resurrected")
	}
	mustPut(t, s2, "after-recovery", []byte("ccc"))
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, dir, Options{})
	if got := mustGet(t, s3, "after-recovery"); string(got) != "ccc" {
		t.Fatalf("append after recovery lost: %q", got)
	}
}

// TestMidFileCorruptionFails: a flipped byte in a non-final segment is
// real corruption, not a torn tail — Open must refuse, not quietly drop
// records.
func TestMidFileCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.rotateAt = 128
	for i := 0; i < 10; i++ {
		mustPut(t, s, fmt.Sprintf("key-%d", i), bytes.Repeat([]byte("z"), 64))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the FIRST segment (several exist).
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[codec.HeaderSize+20] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupted non-final segment")
	}
}

// tenRecordSegment writes ten 82-byte records (key-0 … key-9, 64-byte
// payloads) into one segment and returns its path and bytes (828 with
// the header).
func tenRecordSegment(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		mustPut(t, s, fmt.Sprintf("key-%d", i), bytes.Repeat([]byte("z"), 64))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 828 {
		t.Fatalf("segment is %d bytes, want 828", len(data))
	}
	return path, data
}

// TestChecksumFlipBeforeTailFails: a flipped payload byte in the first
// record of the only (so newest) segment is corruption, not a torn tail,
// because whole records follow it. Open must refuse and leave every byte
// of the file in place, instead of truncating the nine good records away.
func TestChecksumFlipBeforeTailFails(t *testing.T) {
	dir := t.TempDir()
	path, data := tenRecordSegment(t, dir)
	data[codec.HeaderSize+20] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a checksum failure with records after it")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatalf("failed Open changed the segment: %d bytes → %d", len(data), len(after))
	}
}

// TestChecksumFlipInLastFrameRecovers: a whole final frame that fails its
// CRC, with nothing after it, is a torn append. Open truncates it away and
// keeps the nine records before it.
func TestChecksumFlipInLastFrameRecovers(t *testing.T) {
	dir := t.TempDir()
	path, data := tenRecordSegment(t, dir)
	data[len(data)-10] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tornBefore := metricTornTails.Value()
	s := mustOpen(t, dir, Options{})
	if metricTornTails.Value() != tornBefore+1 {
		t.Fatal("torn-tail counter did not advance")
	}
	if s.Len() != 9 {
		t.Fatalf("Len after recovery = %d, want 9", s.Len())
	}
	if _, ok, _ := s.Get("key-9"); ok {
		t.Fatal("the corrupt final record was resurrected")
	}
	if got := mustGet(t, s, "key-8"); !bytes.Equal(got, bytes.Repeat([]byte("z"), 64)) {
		t.Fatalf("key-8 = %q", got)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 746 {
		t.Fatalf("segment is %d bytes after recovery, want 746", fi.Size())
	}
}

// TestForeignFileFails: a stray file matching the segment name pattern
// but holding non-codec bytes must fail Open (never be truncated away).
func TestForeignFileFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.bfc"),
		[]byte("{\"this\": \"is json, not a codec stream\"}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a foreign file as a segment")
	}
	// And the file must still be there, untouched.
	data, err := os.ReadFile(filepath.Join(dir, "seg-000001.bfc"))
	if err != nil || len(data) == 0 {
		t.Fatalf("foreign file was modified: %v (%d bytes)", err, len(data))
	}
}

// TestMetricsAndLoadSpan: hits/misses/writes count, store.bytes tracks
// disk size, and Open emits a store.load span with the index stats.
func TestMetricsAndLoadSpan(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	hits, misses, writes := metricHits.Value(), metricMisses.Value(), metricWrites.Value()
	mustPut(t, s, "a", []byte("1"))
	mustPut(t, s, "b", []byte("2"))
	mustGet(t, s, "a")
	s.Get("absent")
	if got := metricWrites.Value() - writes; got != 2 {
		t.Fatalf("writes delta = %d", got)
	}
	if got := metricHits.Value() - hits; got != 1 {
		t.Fatalf("hits delta = %d", got)
	}
	if got := metricMisses.Value() - misses; got != 1 {
		t.Fatalf("misses delta = %d", got)
	}
	if metricBytes.Value() <= 0 || metricRecords.Value() < 2 {
		t.Fatalf("gauges: bytes=%d records=%d", metricBytes.Value(), metricRecords.Value())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	tr := obs.NewTracer(&trace)
	s2 := mustOpen(t, dir, Options{Trace: tr})
	_ = s2
	for _, want := range []string{`"span_start"`, `"store.load"`, `"span_end"`, `"records"`, `"segments"`} {
		if !bytes.Contains(trace.Bytes(), []byte(want)) {
			t.Errorf("store.load trace missing %s:\n%s", want, trace.String())
		}
	}
}

// TestConcurrentGetPut exercises the RWMutex paths under the race
// detector: concurrent readers against a writer that forces rotation.
func TestConcurrentGetPut(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.rotateAt = 512
	mustPut(t, s, "hot", []byte("hot-value"))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := s.Put(fmt.Sprintf("w-%d", i), bytes.Repeat([]byte("p"), 50)); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if got := mustGet(t, s, "hot"); string(got) != "hot-value" {
			t.Fatalf("hot = %q", got)
		}
	}
	<-done
}
