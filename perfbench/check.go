package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// manifest is the slice of a response body the checks read.
type manifest struct {
	Tables []struct {
		Name string            `json:"name"`
		Rows []json.RawMessage `json:"rows"`
	} `json:"tables"`
}

type bisectionRow struct {
	Exact         int  `json:"exact"`
	ExactComplete bool `json:"exact_complete"`
	Heuristic     int  `json:"heuristic"`
	Constructed   int  `json:"constructed"`
}

type expansionRow struct {
	K              int  `json:"k"`
	WitnessUB      int  `json:"witness_ub"`
	WitnessFormula int  `json:"witness_formula"`
	CreditLB       int  `json:"credit_lb"`
	Exact          int  `json:"exact"`
	ExactComplete  bool `json:"exact_complete"`
}

type routingRow struct {
	CutCapacity int     `json:"cut_capacity"`
	DropProb    float64 `json:"drop_prob"`
	Stats       struct {
		Trials        int     `json:"trials"`
		Requested     int     `json:"requested"`
		DeliveredRate float64 `json:"delivered_rate"`
		MinSteps      int     `json:"min_steps"`
		MinBound      int     `json:"min_bound"`
	} `json:"stats"`
}

// Values EXPERIMENTS pins for constructed bisections of Bn (Theorem 2.20
// rows) and for the §4.3 credit bounds at n=256 (E6: kind → d=4 row).
var (
	pinnedBnConstructed = map[int]int{1024: 1008, 2048: 2016, 4096: 3840, 1 << 15: 30720, 1 << 18: 245760, 1 << 20: 983040}
	pinnedCredit256     = map[string][2]int{"ee_wn": {46, 64}, "ne_wn": {23, 96}, "ee_bn": {19, 32}, "ne_bn": {12, 32}}
)

// checkOutcome validates one response: transport, status, the body
// book's verdict and, for a body the book kept, completeness and the
// pinned values of its rows.
func checkOutcome(o *outcome) error {
	if o.Err != nil {
		return o.Err
	}
	if o.Status != http.StatusOK {
		return fmt.Errorf("status %d: %s", o.Status, strings.TrimSpace(string(o.Body)))
	}
	if o.BodyErr != nil {
		return o.BodyErr
	}
	if o.Body == nil {
		return nil
	}
	return checkBody(o.Q, o.Body, nil)
}

// checkBody decodes a manifest and checks its rows against the paper's
// and EXPERIMENTS' values; pins, when non-nil, are exact optima by set
// size that must be certified (exact_complete) in the body.
func checkBody(q query, body []byte, pins map[int]int) error {
	var m manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return fmt.Errorf("undecodable body: %v", err)
	}
	var rows []json.RawMessage
	var complete bool
	for _, t := range m.Tables {
		switch {
		case t.Name == "serve":
			var req []struct {
				Complete bool `json:"complete"`
			}
			if err := decodeRows(t.Rows, &req); err != nil || len(req) != 1 {
				return fmt.Errorf("bad serve table")
			}
			complete = req[0].Complete
		case strings.HasPrefix(t.Name, q.Endpoint+"."):
			rows = t.Rows
		}
	}
	if !complete {
		return fmt.Errorf("answer not complete (budget-truncated)")
	}
	if len(rows) == 0 {
		return fmt.Errorf("no %s rows", q.Endpoint)
	}
	switch q.Endpoint {
	case "bisection":
		var rs []bisectionRow
		if err := decodeRows(rows, &rs); err != nil {
			return err
		}
		return checkBisection(q, rs[0])
	case "expansion":
		var rs []expansionRow
		if err := decodeRows(rows, &rs); err != nil {
			return err
		}
		return checkExpansion(q, rs, pins)
	case "routing":
		var rs []routingRow
		if err := decodeRows(rows, &rs); err != nil {
			return err
		}
		return checkRouting(q, rs)
	}
	return nil
}

func decodeRows(rows []json.RawMessage, into interface{}) error {
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, into)
}

func checkBisection(q query, r bisectionRow) error {
	n := q.N
	switch q.Network {
	case "bn":
		// BW(B2)=2, BW(B4)=4, BW(B8)=8 exactly (E2).
		if r.ExactComplete && n <= 8 && r.Exact != n {
			return fmt.Errorf("BW(B%d)=%d, want %d", n, r.Exact, n)
		}
		if want, ok := pinnedBnConstructed[n]; ok && r.Constructed != want {
			return fmt.Errorf("B%d constructed %d, want %d", n, r.Constructed, want)
		}
	case "wn":
		// BW(Wn)=n (Lemma 3.2): the column cut is optimal.
		if r.Constructed != n || (r.ExactComplete && r.Exact != n) {
			return fmt.Errorf("W%d constructed %d exact %d, want %d", n, r.Constructed, r.Exact, n)
		}
	case "ccc":
		// BW(CCCn)=n/2 (Lemma 3.3).
		if r.Constructed != n/2 || (r.ExactComplete && r.Exact != n/2) {
			return fmt.Errorf("CCC%d constructed %d exact %d, want %d", n, r.Constructed, r.Exact, n/2)
		}
	}
	if r.Heuristic >= 0 && r.Heuristic < r.Constructed && q.Network != "bn" {
		return fmt.Errorf("%s%d heuristic %d beats the optimum %d", q.Network, n, r.Heuristic, r.Constructed)
	}
	return nil
}

func checkExpansion(q query, rows []expansionRow, pins map[int]int) error {
	seen := 0
	for _, r := range rows {
		if r.WitnessUB != r.WitnessFormula {
			return fmt.Errorf("k=%d witness %d, lemma formula %d", r.K, r.WitnessUB, r.WitnessFormula)
		}
		if r.CreditLB > r.WitnessUB {
			return fmt.Errorf("k=%d credit LB %d above witness %d", r.K, r.CreditLB, r.WitnessUB)
		}
		if r.ExactComplete && (r.Exact < r.CreditLB || r.Exact > r.WitnessUB) {
			return fmt.Errorf("k=%d exact %d outside [%d, %d]", r.K, r.Exact, r.CreditLB, r.WitnessUB)
		}
		if r.K <= q.KMax && q.ExactNodes > 0 && pins != nil && !r.ExactComplete {
			return fmt.Errorf("k=%d not certified (exact_complete false)", r.K)
		}
		if want, ok := pins[r.K]; ok {
			seen++
			if !r.ExactComplete || r.Exact != want {
				return fmt.Errorf("%s(n=%d, k=%d) = %d (complete %v), want %d", q.Kind, q.N, r.K, r.Exact, r.ExactComplete, want)
			}
		}
		if q.N == 256 && r.WitnessFormula == pinnedCredit256[q.Kind][1] && r.CreditLB != pinnedCredit256[q.Kind][0] {
			return fmt.Errorf("%s n=256 k=%d credit LB %d, want %d", q.Kind, r.K, r.CreditLB, pinnedCredit256[q.Kind][0])
		}
	}
	if seen != len(pins) {
		return fmt.Errorf("%d of %d pinned rows present", seen, len(pins))
	}
	return nil
}

func checkRouting(q query, rows []routingRow) error {
	want := len(q.Drops)
	if want == 0 {
		want = 1
	}
	if len(rows) != want {
		return fmt.Errorf("%d routing rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Stats.Requested != q.Trials || r.Stats.Trials < 1 {
			return fmt.Errorf("trials %d of %d", r.Stats.Trials, r.Stats.Requested)
		}
		if r.CutCapacity <= 0 {
			return fmt.Errorf("cut capacity %d", r.CutCapacity)
		}
		// §1.2: no schedule beats the bisection congestion bound.
		if r.Stats.MinSteps < r.Stats.MinBound {
			return fmt.Errorf("min steps %d below the bisection bound %d", r.Stats.MinSteps, r.Stats.MinBound)
		}
		if r.DropProb == 0 && r.Stats.DeliveredRate != 1 {
			return fmt.Errorf("healthy network delivered %.4f", r.Stats.DeliveredRate)
		}
	}
	return nil
}

// bodyBook holds one canonical body per key and checks each answer
// against it as the answer arrives, so a pass keeps one body per key
// rather than one per request. The first body of a key stays on its
// outcome for the value checks; a later equal body is dropped.
type bodyBook struct {
	mu     sync.Mutex
	bodies map[string][]byte
	fixed  bool // bodies came from set-up: every answer must match one
}

// newBook starts a book; fixed, when non-nil, are set-up's bodies, which
// every answer must repeat byte for byte.
func newBook(fixed map[string][]byte) *bodyBook {
	if fixed != nil {
		return &bodyBook{bodies: fixed, fixed: true}
	}
	return &bodyBook{bodies: make(map[string][]byte)}
}

func (b *bodyBook) note(o *outcome) {
	if b == nil || o.Err != nil || o.Status != http.StatusOK {
		return
	}
	key := o.Q.path()
	b.mu.Lock()
	defer b.mu.Unlock()
	want, ok := b.bodies[key]
	switch {
	case !ok && b.fixed:
		o.BodyErr = fmt.Errorf("no set-up body for this key")
	case !ok:
		b.bodies[key] = o.Body
	case !bytes.Equal(want, o.Body):
		o.BodyErr = fmt.Errorf("body differs from the first answer for this key (%d vs %d bytes)", len(o.Body), len(want))
	default:
		o.Body = nil
	}
}

// body returns the canonical body of key.
func (b *bodyBook) body(key string) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bodies[key]
}
