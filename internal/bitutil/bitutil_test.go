package bitutil

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	truths := map[int]bool{
		-4: false, -1: false, 0: false, 1: true, 2: true, 3: false,
		4: true, 6: false, 8: true, 1024: true, 1023: false, 1 << 30: true,
	}
	for x, want := range truths {
		if got := IsPow2(x); got != want {
			t.Errorf("IsPow2(%d) = %v, want %v", x, got, want)
		}
	}
}

func TestLog2(t *testing.T) {
	for d := 0; d < 30; d++ {
		if got := Log2(1 << d); got != d {
			t.Errorf("Log2(2^%d) = %d", d, got)
		}
	}
}

func TestLog2PanicsOnNonPow2(t *testing.T) {
	for _, x := range []int{0, -1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Log2(%d) did not panic", x)
				}
			}()
			Log2(x)
		}()
	}
}

func TestCeilFloorLog2(t *testing.T) {
	cases := []struct{ x, ceil, floor int }{
		{1, 0, 0}, {2, 1, 1}, {3, 2, 1}, {4, 2, 2}, {5, 3, 2},
		{7, 3, 2}, {8, 3, 3}, {9, 4, 3}, {1023, 10, 9}, {1024, 10, 10},
	}
	for _, c := range cases {
		if got := CeilLog2(c.x); got != c.ceil {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.x, got, c.ceil)
		}
		if got := FloorLog2(c.x); got != c.floor {
			t.Errorf("FloorLog2(%d) = %d, want %d", c.x, got, c.floor)
		}
	}
}

func TestBitMatchesBitString(t *testing.T) {
	const d = 7
	for w := 0; w < 1<<d; w++ {
		s := BitString(w, d)
		for pos := 1; pos <= d; pos++ {
			want := int(s[pos-1] - '0')
			if got := Bit(w, d, pos); got != want {
				t.Fatalf("Bit(%d,%d,%d) = %d, want %d (string %q)", w, d, pos, got, want, s)
			}
		}
	}
}

func TestFlipBitInvolution(t *testing.T) {
	f := func(w uint16, pos uint8) bool {
		d := 16
		p := int(pos)%d + 1
		x := int(w)
		return FlipBit(FlipBit(x, d, p), d, p) == x && FlipBit(x, d, p) != x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEdgeBitSemantics(t *testing.T) {
	// Paper: nodes <w,i> and <w',i+1> are linked iff w = w' or w,w' differ
	// exactly in bit position i+1. Check FlipBit produces exactly one
	// differing bit in that position.
	d := 5
	for w := 0; w < 1<<d; w++ {
		for i := 0; i < d; i++ {
			w2 := FlipBit(w, d, i+1)
			diff := w ^ w2
			if OnesCount(diff) != 1 {
				t.Fatalf("flip changed %d bits", OnesCount(diff))
			}
			if Bit(w, d, i+1) == Bit(w2, d, i+1) {
				t.Fatalf("bit %d not flipped", i+1)
			}
		}
	}
}

func TestPrefixSuffixMidCompose(t *testing.T) {
	const d = 12
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		w := rng.Intn(1 << d)
		p := rng.Intn(d + 1)
		s := rng.Intn(d - p + 1)
		m := d - p - s
		pre := Prefix(w, d, p)
		suf := Suffix(w, d, s)
		mid := Mid(w, d, p+1, d-s)
		if got := Compose(pre, p, mid, m, suf, s); got != w {
			t.Fatalf("decompose/compose mismatch: w=%d p=%d s=%d got=%d", w, p, s, got)
		}
	}
}

func TestMidFullRange(t *testing.T) {
	const d = 8
	for w := 0; w < 1<<d; w++ {
		if got := Mid(w, d, 1, d); got != w {
			t.Fatalf("Mid(%d,1,%d) = %d", w, d, got)
		}
		if got := Mid(w, d, 3, 2); got != 0 {
			t.Fatalf("empty Mid = %d, want 0", got)
		}
	}
}

func TestReverseInvolution(t *testing.T) {
	f := func(w uint16) bool {
		d := 16
		x := int(w)
		return Reverse(Reverse(x, d), d) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseKnown(t *testing.T) {
	cases := []struct{ w, d, want int }{
		{0b001, 3, 0b100},
		{0b110, 3, 0b011},
		{0b1011, 4, 0b1101},
		{0, 10, 0},
		{1<<10 - 1, 10, 1<<10 - 1},
	}
	for _, c := range cases {
		if got := Reverse(c.w, c.d); got != c.want {
			t.Errorf("Reverse(%b,%d) = %b, want %b", c.w, c.d, got, c.want)
		}
	}
}

func TestReverseSwapsPrefixSuffix(t *testing.T) {
	// Reversal must map the p-bit prefix onto the reversed p-bit suffix —
	// the property that exchanges the roles of M1 and M3 classes (Lemma 2.1).
	const d = 9
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		w := rng.Intn(1 << d)
		p := rng.Intn(d + 1)
		r := Reverse(w, d)
		if Suffix(r, d, p) != Reverse(Prefix(w, d, p), p) {
			t.Fatalf("prefix/suffix reversal mismatch for w=%09b p=%d", w, p)
		}
	}
}

func TestBitString(t *testing.T) {
	if got := BitString(0b101, 3); got != "101" {
		t.Errorf("BitString = %q", got)
	}
	if got := BitString(1, 5); got != "00001" {
		t.Errorf("BitString = %q", got)
	}
}

func TestPanicsOnBadRanges(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Bit low", func() { Bit(0, 4, 0) })
	mustPanic("Bit high", func() { Bit(0, 4, 5) })
	mustPanic("FlipBit", func() { FlipBit(0, 4, 5) })
	mustPanic("Prefix", func() { Prefix(0, 4, 5) })
	mustPanic("Suffix", func() { Suffix(0, 4, -1) })
	mustPanic("Compose", func() { Compose(2, 1, 0, 0, 0, 0) })
	mustPanic("CeilLog2", func() { CeilLog2(0) })
	mustPanic("FloorLog2", func() { FloorLog2(0) })
}

// OnesCount returns the number of set bits in w.
func OnesCount(w int) int {
	return bits.OnesCount(uint(w))
}
