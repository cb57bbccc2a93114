// Package store is the append-only on-disk result store under butterflyd:
// canonical request key → rendered response body, durable across process
// restarts. The serve layer appends every complete solve here and falls
// back here on an LRU miss, and `butterflyd -precompute` batch-fills it
// ahead of traffic — so a restarted daemon answers previously solved
// queries with one disk read (microseconds) instead of one solve
// (seconds).
//
// On disk a store is a directory of numbered segment files
// (seg-000001.bfc, ...), each an internal/codec stream of KindManifest
// records. Writes append whole frames to the highest-numbered (active)
// segment; an in-memory map from key to (segment, offset) — rebuilt by
// scanning the segments at Open — is the only index, so there is no
// separate index file to corrupt. Within and across segments, the latest
// record for a key wins, which makes overwrites plain appends.
//
// Recovery policy: at the tail of the *newest* segment, a frame cut short
// or a whole frame that fails its CRC with nothing after it is a torn
// final append (the crash window of an append-only file) and is repaired
// by truncating to the last whole record; any other decode error,
// including a bad frame with records after it, is real corruption and
// fails Open with the file untouched. Every read re-verifies its
// record's CRC, so bit rot surfaces as an error, never as a silently
// wrong response body.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/codec"
	"repro/internal/obs"
)

// Registry metrics of the store. The CI warm-start smoke asserts
// store.hits advances (and serve.solves does not) when a restarted daemon
// answers from disk.
var (
	metricHits       = obs.NewCounter("store.hits")
	metricMisses     = obs.NewCounter("store.misses")
	metricWrites     = obs.NewCounter("store.writes")
	metricReadErrors = obs.NewCounter("store.read_errors")
	metricTornTails  = obs.NewCounter("store.torn_tails")
	metricBytes      = obs.NewGauge("store.bytes")
	metricRecords    = obs.NewGauge("store.records")
)

// segmentBytes is the size past which Put rotates the active segment.
// Rotation bounds the blast radius of a torn tail.
const segmentBytes = 64 << 20

// Options tunes a Store.
type Options struct {
	// Trace, when non-nil, receives a store.load span covering the startup
	// segment scan and index build — the warm-start cost, measured.
	Trace *obs.Tracer
}

// ref locates one live record: which segment and at which byte offset
// its frame starts.
type ref struct {
	seg int
	off int64
}

// segment is one on-disk file: a read handle (ReadAt, shared by
// concurrent Gets) plus its id and size.
type segment struct {
	id   int
	r    *os.File
	size int64
}

// Store is the persistent result store. All methods are safe for
// concurrent use: reads share an RLock (os.File.ReadAt is itself
// concurrency-safe), writes take the write lock.
type Store struct {
	mu       sync.RWMutex
	dir      string
	rotateAt int64 // segmentBytes; in-package tests shrink it

	segs   []*segment // ascending id order; last is the active segment
	active *os.File   // append handle of segs[len(segs)-1]
	w      *codec.Writer
	index  map[string]ref
	bytes  int64 // total segment bytes on disk
	closed bool
}

func segPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%06d.bfc", id))
}

// Open opens (creating if needed) the store rooted at dir, scanning every
// segment to rebuild the key index. A torn tail on the newest segment is
// truncated away; any other decode failure aborts with the codec error.
func Open(dir string, opts Options) (*Store, error) {
	span := opts.Trace.StartSpan("store.load", obs.Attrs{"dir": dir})
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	ids, err := segmentIDs(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, rotateAt: segmentBytes, index: make(map[string]ref)}
	if len(ids) == 0 {
		if err := s.startSegment(1); err != nil {
			return nil, err
		}
	} else {
		for i, id := range ids {
			if err := s.loadSegment(id, i == len(ids)-1); err != nil {
				s.closeAll()
				return nil, err
			}
		}
		// A torn-whole-file recovery already started a fresh active
		// segment; otherwise reopen the newest one for appending.
		if s.active == nil {
			last := s.segs[len(s.segs)-1]
			active, err := os.OpenFile(segPath(dir, last.id), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				s.closeAll()
				return nil, fmt.Errorf("store: reopening active segment: %w", err)
			}
			s.active = active
			s.w = codec.Resume(active)
		}
	}
	s.publishGauges()
	span.End(obs.Attrs{
		"segments": len(s.segs),
		"records":  len(s.index),
		"bytes":    s.bytes,
	})
	return s, nil
}

// segmentIDs lists the segment numbers present in dir, ascending.
func segmentIDs(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var ids []int
	for _, e := range entries {
		var id int
		if _, err := fmt.Sscanf(e.Name(), "seg-%d.bfc", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// startSegment creates a fresh empty segment with the given id and makes
// it active.
func (s *Store) startSegment(id int) error {
	path := segPath(s.dir, id)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating segment: %w", err)
	}
	w, err := codec.NewWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	r, err := os.Open(path)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.segs = append(s.segs, &segment{id: id, r: r, size: codec.HeaderSize})
	s.active = f
	s.w = w
	s.bytes += codec.HeaderSize
	return nil
}

// loadSegment opens segment id read-only and indexes its records. For the
// newest segment (tail=true) a trailing decode error truncates the file
// back to the last whole record; elsewhere it is fatal.
func (s *Store) loadSegment(id int, tail bool) error {
	path := segPath(s.dir, id)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size, err := indexSegment(f, id, s.index)
	if err != nil {
		// Only a short or checksum-failed frame at the end of the NEWEST
		// segment is the append-crash window; anything else — including a
		// foreign or version-skewed file — is corruption and fails Open.
		if !tail || !(errors.Is(err, codec.ErrTruncated) || errors.Is(err, codec.ErrChecksum)) {
			f.Close()
			return fmt.Errorf("store: segment %s: %w", path, err)
		}
		// Torn tail: truncate to the last intact record (or restart the
		// file wholesale when even the header is short) and carry on.
		metricTornTails.Inc()
		if size < codec.HeaderSize {
			f.Close()
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("store: removing torn segment: %w", err)
			}
			return s.startSegment(id)
		}
		if err := os.Truncate(path, size); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	s.segs = append(s.segs, &segment{id: id, r: f, size: size})
	s.bytes += size
	return nil
}

// indexSegment scans one segment, recording each record's start offset
// into index (later records overwrite earlier ones). It returns the
// offset of the first undecodable byte — the segment's valid size — and
// the decode error, if any (io.EOF is a clean end, reported as nil).
func indexSegment(f *os.File, id int, index map[string]ref) (int64, error) {
	d, err := codec.NewReader(f)
	if err != nil {
		return 0, err
	}
	for {
		off := d.Offset()
		rec, err := d.Next()
		if err == io.EOF {
			return off, nil
		}
		// A whole frame that fails its CRC can be a torn append only if
		// it is the last one. With anything after it, it is corruption:
		// report it without the ErrChecksum class, so no caller truncates
		// the records that follow.
		if errors.Is(err, codec.ErrChecksum) {
			if _, after := d.Next(); after != io.EOF {
				return off, fmt.Errorf("corrupt record at offset %d with data after it: %v", off, err)
			}
		}
		if err != nil {
			return off, err
		}
		index[rec.Key] = ref{seg: id, off: off}
	}
}

// publishGauges refreshes the size gauges (caller holds the lock).
func (s *Store) publishGauges() {
	metricBytes.Set(s.bytes)
	metricRecords.Set(int64(len(s.index)))
}

// findSeg returns the open segment with the given id.
func (s *Store) findSeg(id int) *segment {
	for _, seg := range s.segs {
		if seg.id == id {
			return seg
		}
	}
	return nil
}

// Get returns the stored payload for key. The record's CRC is verified
// on every read; a failed read (bit rot) counts in store.read_errors and
// returns the error rather than a wrong body.
func (s *Store) Get(key string) ([]byte, bool, error) {
	// The read happens under the RLock: os.File.ReadAt is safe for
	// concurrent use, and holding the lock keeps Close from closing the
	// segment handle mid-read.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, fmt.Errorf("store: closed")
	}
	r, ok := s.index[key]
	var seg *segment
	if ok {
		seg = s.findSeg(r.seg)
	}
	if !ok || seg == nil {
		metricMisses.Inc()
		return nil, false, nil
	}
	rec, err := codec.ReadRecordAt(seg.r, r.off)
	if err != nil {
		metricReadErrors.Inc()
		return nil, false, fmt.Errorf("store: reading %q: %w", key, err)
	}
	if rec.Key != key {
		metricReadErrors.Inc()
		return nil, false, fmt.Errorf("store: index points %q at a record keyed %q", key, rec.Key)
	}
	metricHits.Inc()
	return rec.Payload, true, nil
}

// Has reports whether key is present without touching the disk or the
// hit/miss counters (the precompute skip check).
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Put appends one record for key, superseding any previous one, and
// rotates the active segment past the size limit. Appends are buffered
// by the OS only, so they survive the process but not the machine — call
// Sync for durability points (drain, end of a precompute batch).
func (s *Store) Put(key string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	active := s.segs[len(s.segs)-1]
	off := active.size
	n, err := s.w.Write(codec.Record{Kind: codec.KindManifest, Key: key, Payload: payload})
	if err != nil {
		return fmt.Errorf("store: appending %q: %w", key, err)
	}
	active.size += n
	s.bytes += n
	s.index[key] = ref{seg: active.id, off: off}
	metricWrites.Inc()
	s.publishGauges()
	if active.size > s.rotateAt {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// rotateLocked seals the active segment and starts the next one.
func (s *Store) rotateLocked() error {
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("store: sealing segment: %w", err)
	}
	return s.startSegment(s.segs[len(s.segs)-1].id + 1)
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return nil
}

// Close syncs and closes every handle. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.active.Sync()
	s.closeAll()
	s.closed = true
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}

// closeAll closes every open handle (caller holds the lock).
func (s *Store) closeAll() {
	if s.active != nil {
		s.active.Close()
	}
	for _, seg := range s.segs {
		seg.r.Close()
	}
}
