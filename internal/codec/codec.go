// Package codec is the versioned binary framing under the reproduction's
// persistence layer: the on-disk result store and any future durable
// artifact share one record format, so one strict decoder guards them all.
//
// A stream is a fixed header (magic + format version) followed by
// length-prefixed records, each carrying a kind tag, a key, an opaque
// payload and a CRC-32 over the whole frame. The decoder is strict by
// design: a short header or record is ErrTruncated, a flipped byte is
// ErrChecksum, a foreign file is ErrBadMagic, a file written by a newer
// format is ErrVersion — never a panic, never a silently misread record.
// Callers that own append-only files (internal/store) use those error
// classes to distinguish a torn tail write (recoverable: truncate to the
// last good record) from mid-file corruption (fatal).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// magic opens every codec stream: "BFC" for butterfly codec plus a
// sentinel byte that is invalid UTF-8 and unlikely in text files, so a
// JSON manifest handed to the decoder by mistake fails on the first read.
var magic = [4]byte{'B', 'F', 'C', 0xBF}

// Version is the format version stamped into every stream header. Bump it
// on any incompatible frame change; the decoder rejects both older and
// newer versions, so skewed readers fail loudly instead of misframing.
const Version = 1

// HeaderSize is the byte length of the stream header: magic, a uint16
// version, and two reserved zero bytes.
const HeaderSize = 8

// frameHeadSize is the fixed prefix of one record: kind (uint8), key
// length (uint32) and payload length (uint32), little-endian.
const frameHeadSize = 9

// frameTailSize is the CRC-32 (IEEE) over the head, key and payload.
const frameTailSize = 4

// MaxRecordBytes bounds one record's key+payload. The decoder rejects
// larger length prefixes before allocating, so a corrupted length field
// costs an error, not a multi-gigabyte allocation.
const MaxRecordBytes = 1 << 28

// Kind tags what a record's payload decodes as. Unknown kinds decode
// fine (the frame is self-describing); interpreting them is the caller's
// business, so new kinds are backward-compatible.
type Kind uint8

// Kinds 2 (witness certificates, never written), 3 (the retired routing
// index snapshot) and 4 (the retired cluster wire protocol) are reserved:
// a new kind takes a fresh number, so an old stream can never decode as
// the wrong payload.
const (
	// KindManifest is a rendered run-manifest document — the byte-exact
	// body a butterflyd response serves (internal/store records).
	KindManifest Kind = 1
)

// Decoder error classes. Wrapping errors carry position context; test
// with errors.Is.
var (
	ErrBadMagic  = errors.New("codec: bad magic (not a codec stream)")
	ErrVersion   = errors.New("codec: unsupported format version")
	ErrTruncated = errors.New("codec: truncated stream")
	ErrChecksum  = errors.New("codec: record checksum mismatch")
	ErrTooLarge  = errors.New("codec: record length exceeds limit")
)

// Record is one framed entry: a kind tag, a key (such as the store's
// canonical request key) and an opaque payload.
type Record struct {
	Kind    Kind
	Key     string
	Payload []byte
}

// FrameSize returns the encoded byte length of r, header excluded.
func FrameSize(r Record) int64 {
	return int64(frameHeadSize + len(r.Key) + len(r.Payload) + frameTailSize)
}

// Writer frames records onto an io.Writer. Each record is assembled in
// one buffer and written with a single Write call, so an append-only file
// sees whole frames (a crash can tear at most the final one).
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter starts a fresh stream on w: it writes the header and returns
// a writer for the records.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [HeaderSize]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("codec: writing header: %w", err)
	}
	return &Writer{w: w}, nil
}

// Resume returns a writer that appends records to a stream whose header
// was already written (reopening an append-only file). The caller is
// responsible for having validated the existing header via NewReader.
func Resume(w io.Writer) *Writer { return &Writer{w: w} }

// Write frames one record and returns the number of bytes appended.
func (w *Writer) Write(r Record) (int64, error) {
	if int64(len(r.Key))+int64(len(r.Payload)) > MaxRecordBytes {
		return 0, fmt.Errorf("%w: key %d + payload %d bytes", ErrTooLarge, len(r.Key), len(r.Payload))
	}
	n := int(FrameSize(r))
	if cap(w.buf) < n {
		w.buf = make([]byte, 0, n)
	}
	buf := w.buf[:frameHeadSize]
	buf[0] = byte(r.Kind)
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(r.Key)))
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(r.Payload)))
	buf = append(buf, r.Key...)
	buf = append(buf, r.Payload...)
	sum := crc32.ChecksumIEEE(buf)
	buf = binary.LittleEndian.AppendUint32(buf, sum)
	if _, err := w.w.Write(buf); err != nil {
		return 0, fmt.Errorf("codec: writing record: %w", err)
	}
	return int64(n), nil
}

// Reader decodes a stream sequentially, tracking byte offsets so callers
// building an offset index (internal/store) know where each record
// starts.
type Reader struct {
	r   io.Reader
	off int64 // offset of the next unread byte
}

// NewReader validates the stream header of r and returns a reader
// positioned at the first record.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return nil, fmt.Errorf("%w: stream version %d, this build reads %d", ErrVersion, v, Version)
	}
	return &Reader{r: r, off: HeaderSize}, nil
}

// Offset returns the stream offset of the next record — after a failed
// Next, the position of the first bad byte's frame, which is where an
// append-only owner truncates to recover a torn tail.
func (d *Reader) Offset() int64 { return d.off }

// Next decodes the next record. A clean end of stream is io.EOF; a
// stream ending inside a frame is ErrTruncated; a frame whose bytes do
// not match their CRC is ErrChecksum.
func (d *Reader) Next() (Record, error) {
	rec, n, err := decodeRecord(d.r)
	if err == nil {
		d.off += n
	}
	return rec, err
}

// decodeRecord reads one full frame from r, verifying lengths and CRC.
func decodeRecord(r io.Reader) (Record, int64, error) {
	var head [frameHeadSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, fmt.Errorf("%w: record head: %v", ErrTruncated, err)
	}
	keyLen := binary.LittleEndian.Uint32(head[1:5])
	payloadLen := binary.LittleEndian.Uint32(head[5:9])
	if int64(keyLen)+int64(payloadLen) > MaxRecordBytes {
		return Record{}, 0, fmt.Errorf("%w: key %d + payload %d bytes", ErrTooLarge, keyLen, payloadLen)
	}
	body := make([]byte, int(keyLen)+int(payloadLen)+frameTailSize)
	if _, err := io.ReadFull(r, body); err != nil {
		return Record{}, 0, fmt.Errorf("%w: record body: %v", ErrTruncated, err)
	}
	content := body[:len(body)-frameTailSize]
	want := binary.LittleEndian.Uint32(body[len(body)-frameTailSize:])
	crc := crc32.ChecksumIEEE(head[:])
	crc = crc32.Update(crc, crc32.IEEETable, content)
	if crc != want {
		return Record{}, 0, fmt.Errorf("%w: computed %08x, stored %08x", ErrChecksum, crc, want)
	}
	return Record{
		Kind:    Kind(head[0]),
		Key:     string(content[:keyLen]),
		Payload: content[keyLen:],
	}, int64(frameHeadSize + len(body)), nil
}

// ReadRecordAt decodes the single record starting at offset off of ra —
// the store's random-access read path. The frame's CRC is verified on
// every read, so a flipped bit on disk surfaces as ErrChecksum at the
// caller, never as a silently wrong payload.
func ReadRecordAt(ra io.ReaderAt, off int64) (Record, error) {
	sr := io.NewSectionReader(ra, off, 1<<62)
	rec, _, err := decodeRecord(sr)
	if err == io.EOF {
		err = fmt.Errorf("%w: no record at offset %d", ErrTruncated, off)
	}
	return rec, err
}
