package cluster

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/codec"
)

func sampleShardsMsg() shardsMsg {
	return shardsMsg{
		SearchID: 0xdeadbeefcafe,
		Graph:    "wn:16",
		K:        12,
		Root:     3,
		Edge:     true,
		Origin:   "127.0.0.1:7001",
		Best:     17,
		Witness:  []int{0, 4, 9, 12},
		IDs:      []int{0, 1, 2, 5, 8, 13, 21, 34},
	}
}

// TestWireRoundTrip drives every message type through the full frame
// pipeline: encode body → frame → decode frame → decode body, asserting
// field-exact recovery (including nil-witness and negative sentinels).
func TestWireRoundTrip(t *testing.T) {
	check := func(name string, typ MsgType, body []byte, decode func([]byte) (any, error), want any) {
		t.Helper()
		frame := encodeFrame(typ, body)
		gotType, gotBody, err := decodeFrame(frame)
		if err != nil {
			t.Fatalf("%s: decodeFrame: %v", name, err)
		}
		if gotType != typ {
			t.Fatalf("%s: type %q, want %q", name, gotType, typ)
		}
		got, err := decode(gotBody)
		if err != nil {
			t.Fatalf("%s: decode body: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round-trip\n got %#v\nwant %#v", name, got, want)
		}
	}

	q := queryMsg{Path: "/v1/expansion", RawQuery: "kind=wn&n=16&d=edge&kmax=12"}
	check("query", msgQuery, q.encode(),
		func(b []byte) (any, error) { return decodeQueryMsg(b) }, q)

	qok := queryOK{Status: 200, Source: "hit", Body: []byte(`{"results":[]}`)}
	check("query.ok", msgQueryOK, qok.encode(),
		func(b []byte) (any, error) { return decodeQueryOK(b) }, qok)

	sm := sampleShardsMsg()
	check("shards", msgShards, sm.encode(),
		func(b []byte) (any, error) { return decodeShardsMsg(b) }, sm)

	smNil := sampleShardsMsg()
	smNil.Witness = nil // no incumbent yet: witness must survive as nil, not []int{}
	smNil.Best = -1
	check("shards/nil-witness", msgShards, smNil.encode(),
		func(b []byte) (any, error) { return decodeShardsMsg(b) }, smNil)

	sok := shardsOK{Complete: true, Best: 9, Witness: []int{1, 2, 3}, Explored: 123456, Pruned: 99}
	check("shards.ok", msgShardsOK, sok.encode(),
		func(b []byte) (any, error) { return decodeShardsOK(b) }, sok)

	om := offerMsg{SearchID: 7, Best: 11, Witness: []int{8, 16, 24}}
	check("offer", msgOffer, om.encode(),
		func(b []byte) (any, error) { return decodeOfferMsg(b) }, om)

	ook := offerOK{Known: true, Best: 11, Witness: []int{8, 16, 24}}
	check("offer.ok", msgOfferOK, ook.encode(),
		func(b []byte) (any, error) { return decodeOfferOK(b) }, ook)

	em := errMsg{Msg: "graph spec \"wn:3\" rejected"}
	check("err", msgErr, em.encode(),
		func(b []byte) (any, error) { return decodeErrMsg(b) }, em)
}

// TestWireFrameTruncation cuts a frame at every byte length. A frame is
// exactly one record, so unlike a multi-record stream there is no valid
// shorter prefix: every truncation must be an ErrWire, never a panic and
// never a silently shorter message.
func TestWireFrameTruncation(t *testing.T) {
	frame := encodeFrame(msgShards, sampleShardsMsg().encode())
	for cut := 0; cut < len(frame); cut++ {
		_, _, err := decodeFrame(frame[:cut])
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", cut, len(frame))
		}
		if !errors.Is(err, ErrWire) {
			t.Fatalf("truncation to %d bytes: error %v is not ErrWire", cut, err)
		}
	}
}

// TestWireFrameByteFlips corrupts every byte of a frame with two flip
// patterns and demands the full decode pipeline (frame + body) reject it.
// The only exemption is the codec stream header's two reserved bytes
// (offsets 6 and 7): they are not CRC-covered and carry no meaning, so a
// flip there must still decode — to exactly the original message.
func TestWireFrameByteFlips(t *testing.T) {
	orig := sampleShardsMsg()
	frame := encodeFrame(msgShards, orig.encode())
	reserved := map[int]bool{6: true, 7: true}
	for i := 0; i < len(frame); i++ {
		for _, mask := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), frame...)
			mut[i] ^= mask
			typ, body, err := decodeFrame(mut)
			var got shardsMsg
			if err == nil {
				got, err = decodeShardsMsg(body)
			}
			if reserved[i] {
				if err != nil {
					t.Fatalf("flip 0x%02x at reserved byte %d: %v", mask, i, err)
				}
				if typ != msgShards || !reflect.DeepEqual(got, orig) {
					t.Fatalf("flip 0x%02x at reserved byte %d altered the message", mask, i)
				}
				continue
			}
			if err == nil {
				// The flip decoded: silent corruption unless it is a
				// perfect reconstruction, which a single flip cannot be.
				t.Fatalf("flip 0x%02x at byte %d/%d went undetected (decoded %#v)",
					mask, i, len(frame), got)
			}
			if !errors.Is(err, ErrWire) {
				t.Fatalf("flip 0x%02x at byte %d: error %v is not ErrWire", mask, i, err)
			}
		}
	}
}

// TestWireBodyDecodersRejectMutations attacks the body decoders below the
// frame CRC (as a handler would see bodies if framing were ever bypassed):
// every strict prefix of a valid body and every single-byte flip must
// produce an error or a decode — never a panic — and truncations in
// particular must always error, because every message ends in
// length-prefixed fields that demand their declared bytes.
func TestWireBodyDecodersRejectMutations(t *testing.T) {
	cases := []struct {
		name   string
		body   []byte
		decode func([]byte) error
	}{
		{"query", queryMsg{Path: "/v1/bisection", RawQuery: "network=wn&n=16"}.encode(),
			func(b []byte) error { _, err := decodeQueryMsg(b); return err }},
		{"query.ok", queryOK{Status: 200, Source: "miss", Body: []byte("{}")}.encode(),
			func(b []byte) error { _, err := decodeQueryOK(b); return err }},
		{"shards", sampleShardsMsg().encode(),
			func(b []byte) error { _, err := decodeShardsMsg(b); return err }},
		{"shards.ok", shardsOK{Complete: true, Best: 4, Witness: []int{1}, Explored: 10, Pruned: 2}.encode(),
			func(b []byte) error { _, err := decodeShardsOK(b); return err }},
		{"offer", offerMsg{SearchID: 1, Best: 3, Witness: []int{0, 1}}.encode(),
			func(b []byte) error { _, err := decodeOfferMsg(b); return err }},
		{"offer.ok", offerOK{Known: false, Best: -1}.encode(),
			func(b []byte) error { _, err := decodeOfferOK(b); return err }},
		{"err", errMsg{Msg: "boom"}.encode(),
			func(b []byte) error { _, err := decodeErrMsg(b); return err }},
	}
	for _, tc := range cases {
		if err := tc.decode(tc.body); err != nil {
			t.Fatalf("%s: pristine body rejected: %v", tc.name, err)
		}
		for cut := 0; cut < len(tc.body); cut++ {
			if err := tc.decode(tc.body[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d/%d bytes decoded", tc.name, cut, len(tc.body))
			}
		}
		for i := 0; i < len(tc.body); i++ {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				mut := append([]byte(nil), tc.body...)
				mut[i] ^= mask
				_ = tc.decode(mut) // must not panic; error or benign decode both fine
			}
		}
		// Trailing garbage is a framing disagreement, not padding.
		if err := tc.decode(append(append([]byte(nil), tc.body...), 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", tc.name)
		}
	}
}

// TestWireHostileLengthPrefixes plants maximal length prefixes and checks
// they cost an error, not a giant allocation or a panic.
func TestWireHostileLengthPrefixes(t *testing.T) {
	var w wbuf
	w.u32(0xffffffff) // string "length" far beyond maxWireString
	if _, err := decodeQueryMsg(w.b); !errors.Is(err, ErrWire) {
		t.Fatalf("hostile string length: %v", err)
	}
	var w2 wbuf
	w2.u64(1)
	w2.i64(0)
	w2.u32(0xffffffff) // witness count far beyond maxWireInts
	if _, err := decodeOfferMsg(w2.b); !errors.Is(err, ErrWire) {
		t.Fatalf("hostile int-list length: %v", err)
	}
	var w3 wbuf
	w3.u8(7) // not a boolean
	w3.i64(0)
	w3.ints(nil)
	w3.i64(0)
	w3.i64(0)
	if _, err := decodeShardsOK(w3.b); !errors.Is(err, ErrWire) {
		t.Fatalf("non-boolean byte: %v", err)
	}
}

// TestWireFrameStrictness pins frame-level invariants: two records in one
// frame, a foreign record kind, and an empty frame are all rejected.
func TestWireFrameStrictness(t *testing.T) {
	if _, _, err := decodeFrame(nil); !errors.Is(err, ErrWire) {
		t.Fatalf("empty frame: %v", err)
	}

	// Two records: valid codec stream, invalid cluster frame.
	var buf frameBuilder
	buf.add(codec.Record{Kind: codec.KindClusterMsg, Key: string(msgErr), Payload: errMsg{Msg: "a"}.encode()})
	buf.add(codec.Record{Kind: codec.KindClusterMsg, Key: string(msgErr), Payload: errMsg{Msg: "b"}.encode()})
	if _, _, err := decodeFrame(buf.bytes()); !errors.Is(err, ErrWire) {
		t.Fatalf("two-record frame: %v", err)
	}

	// Foreign record kind inside a structurally valid stream.
	var buf2 frameBuilder
	buf2.add(codec.Record{Kind: codec.KindManifest, Key: "x", Payload: []byte("y")})
	if _, _, err := decodeFrame(buf2.bytes()); !errors.Is(err, ErrWire) {
		t.Fatalf("foreign record kind: %v", err)
	}
}

// frameBuilder assembles multi-record codec streams for strictness tests.
type frameBuilder struct {
	started bool
	w       *codec.Writer
	buf     *writerBuf
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (f *frameBuilder) add(rec codec.Record) {
	if !f.started {
		f.buf = &writerBuf{}
		w, err := codec.NewWriter(f.buf)
		if err != nil {
			panic(err)
		}
		f.w = w
		f.started = true
	}
	if _, err := f.w.Write(rec); err != nil {
		panic(err)
	}
}

func (f *frameBuilder) bytes() []byte { return f.buf.b }
