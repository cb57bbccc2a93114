package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call the benchmark made into a layer: an HTTP round
// trip, an in-process ServeHTTP replay, or a direct call to a layer's
// entry point. Start and end are µs since the recorder began; the layer
// is the span name's first dot-separated word.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Name    string  `json:"name"`
	ReqID   string  `json:"request_id,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Note    string  `json:"note,omitempty"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records one finished span and returns its ID (0 on a nil recorder).
func (r *recorder) add(parent int64, name, reqID, note string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, ReqID: reqID, Note: note,
		StartUS: us(start.Sub(r.t0)), EndUS: us(end.Sub(r.t0)),
	})
	return id
}

// begin opens a span whose children are recorded before it ends: it
// reserves the ID now and fills in the end time when the returned func
// runs.
func (r *recorder) begin(parent int64, name string) (id int64, end func()) {
	if r == nil {
		return 0, func() {}
	}
	start := time.Now()
	r.mu.Lock()
	id = int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, StartUS: us(start.Sub(r.t0))})
	r.mu.Unlock()
	return id, func() {
		r.mu.Lock()
		r.spans[id-1].EndUS = us(time.Since(r.t0))
		r.mu.Unlock()
	}
}

// time runs f inside a span and returns f's wall time.
func (r *recorder) time(parent int64, name, note string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.add(parent, name, "", note, start, end)
	return end.Sub(start)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line to path, creating its directory.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in µs: its duration minus the
// part of it its child spans cover. Overlapping children (concurrent
// round trips under one phase) count once, and a child sticking out of
// its parent counts only inside it.
func selfTimes(spans []span) map[int64]float64 {
	children := make(map[int64][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.StartUS, s.EndUS})
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.EndUS - s.StartUS) - covered(s.StartUS, s.EndUS, children[s.ID])
	}
	return self
}

// covered measures the union of ivs clipped to [lo, hi].
func covered(lo, hi float64, ivs [][2]float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]float64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, curLo, curHi := 0.0, 0.0, 0.0
	open := false
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b <= a {
			continue
		}
		if open && a <= curHi {
			if b > curHi {
				curHi = b
			}
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerRow is one line of the traced run's per-layer summary.
type layerRow struct {
	Layer  string
	SelfMS float64
	Share  float64 // of the traced wall time
	Count  int
}

// layerSummary aggregates self time and span counts per layer; wall is
// the traced run's wall time the shares are taken of.
func layerSummary(spans []span, wall time.Duration) []layerRow {
	self := selfTimes(spans)
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		l := s.layer()
		row := rows[l]
		if row == nil {
			row = &layerRow{Layer: l}
			rows[l] = row
		}
		row.SelfMS += self[s.ID] / 1000
		row.Count++
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.Share = ratio(r.SelfMS, ms(wall))
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

func printLayerSummary(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-10s %12s %8s %8s\n", "layer", "self_ms", "share", "spans")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.3f %7.2f%% %8d\n", r.Layer, r.SelfMS, 100*r.Share, r.Count)
	}
}
