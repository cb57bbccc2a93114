// Package cluster shards butterflyd across peers: a rendezvous-hashed
// key router forwards serve queries to their owning node, and a
// coordinator distributes one exact expansion search's BFS-prefix shards
// (internal/exact.SearchExpansionShards) over the same peers — gossiping
// the shared incumbent so every peer prunes against the globally best
// witness, and re-queueing unfinished shard batches from stragglers or
// dead peers so the solve stays exact as long as any peer survives.
//
// Every cross-node byte rides one internal/codec CRC-framed record of
// KindClusterMsg: the record key names the message type, the payload is a
// fixed little-endian body. The decoder is strict — truncation, flipped
// bytes and oversized length prefixes are errors, never panics — because
// a corrupted incumbent value would silently destroy the exactness
// guarantee the searches exist to certify.
package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/codec"
)

// MsgType names one wire message; it travels as the codec record key.
type MsgType string

const (
	// msgQuery forwards one serve API query to the peer owning its key;
	// msgQueryOK carries back the owner's verbatim response body.
	msgQuery   MsgType = "query"
	msgQueryOK MsgType = "query.ok"
	// msgShards assigns a batch of expansion prefix shards; msgShardsOK
	// reports the batch outcome and the peer's incumbent afterwards.
	msgShards   MsgType = "shards"
	msgShardsOK MsgType = "shards.ok"
	// msgOffer gossips an incumbent (value + witness); msgOfferOK answers
	// with the receiver's own current incumbent, so gossip tightens both
	// directions of every exchange.
	msgOffer   MsgType = "offer"
	msgOfferOK MsgType = "offer.ok"
	// msgErr carries a handler failure back to the caller.
	msgErr MsgType = "err"
)

// maxFrameBytes bounds one wire frame (transport read limit). Shard
// batches and manifests are far smaller; anything bigger is corruption.
const maxFrameBytes = 1 << 26

// Decode limits: a hostile or corrupted length prefix must cost an error,
// not an allocation.
const (
	maxWireString = 1 << 16
	maxWireInts   = 1 << 20
	maxWireBytes  = maxFrameBytes
)

// ErrWire classifies every malformed-message decode failure; test with
// errors.Is.
var ErrWire = errors.New("cluster: malformed wire message")

// RemoteError is a failure reported by the remote handler (as opposed to
// a transport failure reaching it).
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "cluster: remote: " + e.Msg }

// encodeFrame wraps one message into a self-contained codec stream:
// header plus exactly one KindClusterMsg record.
func encodeFrame(t MsgType, body []byte) []byte {
	var buf bytes.Buffer
	w, err := codec.NewWriter(&buf)
	if err == nil {
		_, err = w.Write(codec.Record{Kind: codec.KindClusterMsg, Key: string(t), Payload: body})
	}
	if err != nil {
		// bytes.Buffer writes cannot fail; a failure here is a programming
		// error (oversized frame), which no caller constructs.
		panic("cluster: encoding frame: " + err.Error())
	}
	return buf.Bytes()
}

// decodeFrame strictly decodes one frame: exactly one KindClusterMsg
// record, nothing trailing. All codec failures surface wrapped in ErrWire.
func decodeFrame(b []byte) (MsgType, []byte, error) {
	r, err := codec.NewReader(bytes.NewReader(b))
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	rec, err := r.Next()
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	if rec.Kind != codec.KindClusterMsg {
		return "", nil, fmt.Errorf("%w: record kind %d is not a cluster message", ErrWire, rec.Kind)
	}
	if _, err := r.Next(); err != io.EOF {
		return "", nil, fmt.Errorf("%w: trailing data after message", ErrWire)
	}
	return MsgType(rec.Key), rec.Payload, nil
}

// wbuf builds message bodies: fixed-width little-endian fields, strings
// and slices length-prefixed with uint32.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v uint8)   { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)  { w.u64(uint64(v)) }
func (w *wbuf) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *wbuf) raw(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}
func (w *wbuf) ints(vs []int) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.i64(int64(v))
	}
}

// rbuf decodes message bodies. The first failure latches: every later
// accessor returns zero values, and err() reports what went wrong, so
// decoders read fields unconditionally and check once.
type rbuf struct {
	b    []byte
	off  int
	fail error
}

func (r *rbuf) bad(format string, args ...any) {
	if r.fail == nil {
		r.fail = fmt.Errorf("%w: %s", ErrWire, fmt.Sprintf(format, args...))
	}
}

func (r *rbuf) take(n int) []byte {
	if r.fail != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.bad("need %d bytes at offset %d, have %d", n, r.off, len(r.b)-r.off)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *rbuf) u8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *rbuf) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *rbuf) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *rbuf) i64() int64 { return int64(r.u64()) }

func (r *rbuf) boolean() bool {
	switch v := r.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.bad("boolean byte %d", v)
		return false
	}
}

func (r *rbuf) str() string {
	n := r.u32()
	if n > maxWireString {
		r.bad("string length %d exceeds %d", n, maxWireString)
		return ""
	}
	return string(r.take(int(n)))
}

func (r *rbuf) raw() []byte {
	n := r.u32()
	if n > maxWireBytes {
		r.bad("byte field length %d exceeds %d", n, maxWireBytes)
		return nil
	}
	p := r.take(int(n))
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

func (r *rbuf) ints() []int {
	n := r.u32()
	if n > maxWireInts {
		r.bad("int list length %d exceeds %d", n, maxWireInts)
		return nil
	}
	if r.fail != nil || n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, int(r.i64()))
	}
	if r.fail != nil {
		return nil
	}
	return out
}

// done verifies the body was consumed exactly — trailing garbage means a
// framing disagreement, which must fail loudly.
func (r *rbuf) done() error {
	if r.fail != nil {
		return r.fail
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing body bytes", ErrWire, len(r.b)-r.off)
	}
	return nil
}

// queryMsg forwards one serve query: the endpoint path and the raw query
// string of the original request. The receiving peer answers it through
// its own serve mux, so a forwarded request and a direct one take the
// same parse → cache → solve path.
type queryMsg struct {
	Path     string
	RawQuery string
}

func (m queryMsg) encode() []byte {
	var w wbuf
	w.str(m.Path)
	w.str(m.RawQuery)
	return w.b
}

func decodeQueryMsg(b []byte) (queryMsg, error) {
	r := rbuf{b: b}
	m := queryMsg{Path: r.str(), RawQuery: r.str()}
	return m, r.done()
}

// queryOK is the owner's response, relayed verbatim: HTTP status, its
// X-Cache disposition, and the exact body bytes — so a forwarded answer
// is byte-identical to asking the owner directly.
type queryOK struct {
	Status uint32
	Source string
	Body   []byte
}

func (m queryOK) encode() []byte {
	var w wbuf
	w.u32(m.Status)
	w.str(m.Source)
	w.raw(m.Body)
	return w.b
}

func decodeQueryOK(b []byte) (queryOK, error) {
	r := rbuf{b: b}
	m := queryOK{Status: r.u32(), Source: r.str(), Body: r.raw()}
	return m, r.done()
}

// shardsMsg assigns prefix shard IDs of one distributed expansion search.
// Graph is a graph spec ("wn:16", "bn:8") every party reconstructs
// identically; SearchID scopes the peer-side incumbent; Origin, when
// non-empty, is the coordinator address the peer push-gossips local
// improvements to; Best/Witness seed the peer's bound with the
// coordinator's incumbent at dispatch time.
type shardsMsg struct {
	SearchID uint64
	Graph    string
	K        int
	Root     int
	Edge     bool
	Origin   string
	Best     int64
	Witness  []int
	IDs      []int
}

func (m shardsMsg) encode() []byte {
	var w wbuf
	w.u64(m.SearchID)
	w.str(m.Graph)
	w.i64(int64(m.K))
	w.i64(int64(m.Root))
	w.boolean(m.Edge)
	w.str(m.Origin)
	w.i64(m.Best)
	w.ints(m.Witness)
	w.ints(m.IDs)
	return w.b
}

func decodeShardsMsg(b []byte) (shardsMsg, error) {
	r := rbuf{b: b}
	m := shardsMsg{
		SearchID: r.u64(),
		Graph:    r.str(),
		K:        int(r.i64()),
		Root:     int(r.i64()),
		Edge:     r.boolean(),
		Origin:   r.str(),
		Best:     r.i64(),
		Witness:  r.ints(),
		IDs:      r.ints(),
	}
	return m, r.done()
}

// shardsOK reports one batch: whether every shard ran to exhaustion (only
// complete batches count toward the exactness certificate), the peer's
// incumbent after the batch, and the explored/pruned node telemetry.
type shardsOK struct {
	Complete bool
	Best     int64
	Witness  []int
	Explored int64
	Pruned   int64
}

func (m shardsOK) encode() []byte {
	var w wbuf
	w.boolean(m.Complete)
	w.i64(m.Best)
	w.ints(m.Witness)
	w.i64(m.Explored)
	w.i64(m.Pruned)
	return w.b
}

func decodeShardsOK(b []byte) (shardsOK, error) {
	r := rbuf{b: b}
	m := shardsOK{
		Complete: r.boolean(),
		Best:     r.i64(),
		Witness:  r.ints(),
		Explored: r.i64(),
		Pruned:   r.i64(),
	}
	return m, r.done()
}

// offerMsg gossips an incumbent. The witness always rides along: a bound
// without its certifying set would evaporate if the discovering peer died
// before the coordinator collected it.
type offerMsg struct {
	SearchID uint64
	Best     int64
	Witness  []int
}

func (m offerMsg) encode() []byte {
	var w wbuf
	w.u64(m.SearchID)
	w.i64(m.Best)
	w.ints(m.Witness)
	return w.b
}

func decodeOfferMsg(b []byte) (offerMsg, error) {
	r := rbuf{b: b}
	m := offerMsg{SearchID: r.u64(), Best: r.i64(), Witness: r.ints()}
	return m, r.done()
}

// offerOK answers gossip with the receiver's own incumbent. Known is
// false when the receiver holds no state for the search (already evicted,
// or never assigned a batch); the values are then meaningless.
type offerOK struct {
	Known   bool
	Best    int64
	Witness []int
}

func (m offerOK) encode() []byte {
	var w wbuf
	w.boolean(m.Known)
	w.i64(m.Best)
	w.ints(m.Witness)
	return w.b
}

func decodeOfferOK(b []byte) (offerOK, error) {
	r := rbuf{b: b}
	m := offerOK{Known: r.boolean(), Best: r.i64(), Witness: r.ints()}
	return m, r.done()
}

// errMsg carries a remote handler failure.
type errMsg struct{ Msg string }

func (m errMsg) encode() []byte {
	var w wbuf
	w.str(m.Msg)
	return w.b
}

func decodeErrMsg(b []byte) (errMsg, error) {
	r := rbuf{b: b}
	m := errMsg{Msg: r.str()}
	return m, r.done()
}
