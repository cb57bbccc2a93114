// Package bitutil provides bit-manipulation helpers for butterfly column
// labels, and the splitmix64 mixer that every seeded stream derives from.
//
// Throughout this repository, a column of a (log n)-dimensional butterfly is
// a (log n)-bit binary number w ∈ {0,1}^log n. Following the paper, bit
// positions are numbered 1 through log n with position 1 being the most
// significant bit. An edge between level i and level i+1 either keeps the
// column fixed or flips the bit in position i+1.
package bitutil

import "math/bits"

// IsPow2 reports whether x is a positive power of two.
func IsPow2(x int) bool {
	return x > 0 && x&(x-1) == 0
}

// Log2 returns log₂(x) for a positive power of two x. It panics otherwise,
// because callers pass network sizes that are validated at construction time
// and a non-power-of-two here indicates a programming error.
func Log2(x int) int {
	if !IsPow2(x) {
		panic("bitutil: Log2 of non-power-of-two")
	}
	return bits.TrailingZeros(uint(x))
}

// CeilLog2 returns ⌈log₂(x)⌉ for x ≥ 1.
func CeilLog2(x int) int {
	if x <= 0 {
		panic("bitutil: CeilLog2 of non-positive value")
	}
	return bits.Len(uint(x - 1))
}

// FloorLog2 returns ⌊log₂(x)⌋ for x ≥ 1.
func FloorLog2(x int) int {
	if x <= 0 {
		panic("bitutil: FloorLog2 of non-positive value")
	}
	return bits.Len(uint(x)) - 1
}

// Bit returns the bit of w in paper position pos (1-based, MSB first) when w
// is treated as a d-bit column label. Positions outside [1,d] panic.
func Bit(w, d, pos int) int {
	if pos < 1 || pos > d {
		panic("bitutil: bit position out of range")
	}
	return (w >> (d - pos)) & 1
}

// FlipBit returns w with the bit in paper position pos (1-based, MSB first)
// flipped, treating w as a d-bit label.
func FlipBit(w, d, pos int) int {
	if pos < 1 || pos > d {
		panic("bitutil: bit position out of range")
	}
	return w ^ (1 << (d - pos))
}

// Prefix returns the value of the first (most significant) p bits of the
// d-bit label w, i.e. paper positions 1..p.
func Prefix(w, d, p int) int {
	if p < 0 || p > d {
		panic("bitutil: prefix length out of range")
	}
	return w >> (d - p)
}

// Suffix returns the value of the last (least significant) s bits of the
// d-bit label w, i.e. paper positions d−s+1..d.
func Suffix(w, d, s int) int {
	if s < 0 || s > d {
		panic("bitutil: suffix length out of range")
	}
	if s == 0 {
		return 0
	}
	return w & ((1 << s) - 1)
}

// Mid returns the value of bits in paper positions lo..hi (inclusive,
// 1-based) of the d-bit label w.
func Mid(w, d, lo, hi int) int {
	if lo < 1 || hi > d || lo > hi+1 {
		panic("bitutil: mid range out of range")
	}
	if lo > hi {
		return 0
	}
	return (w >> (d - hi)) & ((1 << (hi - lo + 1)) - 1)
}

// Compose builds a d-bit label from a p-bit prefix, an m-bit middle and an
// s-bit suffix with p+m+s = d.
func Compose(prefix, p, mid, m, suffix, s int) int {
	if prefix < 0 || prefix >= 1<<p || mid < 0 || mid >= 1<<m || suffix < 0 || suffix >= 1<<s {
		panic("bitutil: compose parts out of range")
	}
	return prefix<<(m+s) | mid<<s | suffix
}

// Reverse returns the d-bit label w with its bits reversed (position 1 swaps
// with position d, and so on). Bit reversal realizes the level-reversing
// automorphism of the butterfly (Lemma 2.1).
func Reverse(w, d int) int {
	return int(bits.Reverse64(uint64(w)) >> (64 - d))
}

// BitString renders w as a d-character binary string, MSB first, matching the
// column labels of Figure 1 in the paper.
func BitString(w, d int) string {
	buf := make([]byte, d)
	for i := 0; i < d; i++ {
		buf[i] = byte('0' + Bit(w, d, i+1))
	}
	return string(buf)
}

// golden is splitmix64's increment, 2^64/φ rounded to odd.
const golden = 0x9e3779b97f4a7c15

// Mix64 is the splitmix64 output at state x: x advanced by the increment,
// then finalized. Nearby inputs give unrelated words; the cluster ring
// scores (peer, key) pairs with it.
func Mix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SubSeed derives seed i of the stream named by base: the (i+1)-th
// splitmix64 output from state base. Routing trials, heuristic starts and
// butterflybench's request sequences draw from it. Plain base+i sub-seeds
// would make base seeds S and S+1 share all but one stream.
func SubSeed(base int64, i int) int64 {
	return int64(Mix64(uint64(base) + golden*uint64(i)))
}
