// Word-parallel virtual plan evaluation: the side-A membership of 64
// consecutive columns is computed as one uint64 mask per level, and the
// cut's edge groups are counted with popcounts on XORs of adjacent-level
// masks. This is what lets the constructed-bisection measurement (R1, the
// folklore refutation) run at memory bandwidth on 2^18–2^20-column
// butterflies instead of paying one InA call per node.
//
// The decomposition mirrors InA exactly:
//
//   - On the top log j levels, membership is the suffix threshold
//     Suffix(w) < a. Within a 64-aligned word the suffix either increases
//     linearly (j ≥ 64: the whole mask is a single contiguous window,
//     windowMask(a − s0)) or repeats with period j (j < 64: one
//     plan-constant pattern serves every word).
//   - On the bottom log j levels, membership is the prefix threshold
//     Prefix(w) < b — constant across a word when n/j ≥ 64, a window
//     otherwise.
//   - On the middle levels, the per-component quota comparison
//     pos = (i − log j)·cols + m  vs  KA reduces, for a fixed column, to a
//     *level threshold*: TopInA components are member on level offsets
//     [0, t), the rest on [t, midLevels). One 64-iteration pass per word
//     buckets those thresholds, after which every level's mask is one
//     AND-NOT/OR away from the previous level's.
//
// Cross edges flip column bit position i+1 (bit index d−i−1 from the LSB).
// Three cases, all resolved inside one aligned block of 2n/j columns:
//
//   - target level in the top (resp. bottom) region: the flipped bit lies
//     outside the suffix (resp. prefix) field, so the partner's membership
//     equals the straight neighbour's and the cross count equals the
//     straight count — no lookup at all;
//   - flipped bit index ≥ 6: the partner word is another word of the same
//     block (the block size is chosen as max(64, 2n/j) exactly so that
//     every middle-level partner stays in-block);
//   - flipped bit index < 6: the partner is in the same word, reached by
//     the butterfly permutation k ↦ k xor 2^idx of the mask bits.
package construct

import (
	"context"
	"math/bits"

	"repro/internal/obs"
	"repro/internal/solve"
)

// Registry metrics of the word evaluator: one uint64 membership mask
// computed = one word evaluated.
var (
	metricWordsEvaluated = obs.NewCounter("construct.words_evaluated")
	metricWordBlocks     = obs.NewCounter("construct.word_blocks")
)

// xorShuffleMask[b] selects the bits of a 64-bit mask whose in-word index
// has bit b clear; xorShuffle uses it to permute mask bits by k ↦ k xor 2^b.
var xorShuffleMask = [6]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff,
	0x0000ffff0000ffff,
	0x00000000ffffffff,
}

// xorShuffle returns m with bit k moved to position k xor 2^b, for b < 6 —
// the in-word form of the butterfly's cross-edge column permutation.
func xorShuffle(m uint64, b int) uint64 {
	sh := uint(1) << uint(b)
	sel := xorShuffleMask[b]
	return (m&sel)<<sh | (m>>sh)&sel
}

// windowMask returns a mask of the c lowest bits, clamped to [0, 64].
func windowMask(c int) uint64 {
	if c <= 0 {
		return 0
	}
	if c >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(c) - 1
}

// maxWordScratchWords bounds the per-worker mask buffer: (log n + 1) level
// rows of blockWords uint64s each. Plans from BestPlan keep blocks at
// 2n/j ≤ 2√n columns, well under this; only hand-built degenerate plans
// (tiny j on a huge n) exceed it and fall back to the scalar path.
const maxWordScratchWords = 1 << 23

// wordEvaluator holds the plan-derived constants of the word kernel.
type wordEvaluator struct {
	p                       *Plan
	d, lj, j, a, b          int
	cols, midLevels, compSz int
	blockCols, blockWords   int
	sufPattern              uint64 // suffix-threshold pattern, valid when log j < 6
}

// wordEligible reports whether the plan can run the word kernel: at least
// one full word of columns and a cache-bounded scratch.
func (p *Plan) wordEligible() bool {
	if p.N < 64 {
		return false
	}
	blockCols := 1 << uint(p.Dim-p.LogJ+1)
	if blockCols < 64 {
		blockCols = 64
	}
	return (p.Dim+1)*(blockCols/64) <= maxWordScratchWords
}

func newWordEvaluator(p *Plan) *wordEvaluator {
	d, lj := p.Dim, p.LogJ
	e := &wordEvaluator{
		p: p, d: d, lj: lj, j: p.J, a: p.A, b: p.B,
		cols:      p.cols(),
		midLevels: d - 2*lj + 1,
		compSz:    p.CompSize(),
	}
	// Blocks of max(64, 2n/j) columns: large enough that every cross-edge
	// partner needed for a middle target level is inside the block.
	e.blockCols = 1 << uint(d-lj+1)
	if e.blockCols < 64 {
		e.blockCols = 64
	}
	e.blockWords = e.blockCols / 64
	if lj < 6 {
		// j divides 64, so the suffix pattern is identical in every
		// 64-aligned word: bit k set iff (k mod j) < a.
		for k := 0; k < 64; k++ {
			if k&(e.j-1) < e.a {
				e.sufPattern |= 1 << uint(k)
			}
		}
	}
	return e
}

// wordScratch is one worker's reusable buffers: the level-major mask rows
// of the current block and the middle-level threshold buckets. All hot-loop
// state lives here, so block evaluation allocates nothing.
type wordScratch struct {
	masks          []uint64 // (d+1) rows of blockWords masks
	clearAt, setAt []uint64 // indexed by middle-level offset
}

func (e *wordEvaluator) newScratch() *wordScratch {
	return &wordScratch{
		masks:   make([]uint64, (e.d+1)*e.blockWords),
		clearAt: make([]uint64, e.midLevels+1),
		setAt:   make([]uint64, e.midLevels+1),
	}
}

// fillWord computes the membership masks of columns [w0, w0+64) on every
// level, where w0 = blockBase + 64·wi, and stores them into the block's
// level rows at word index wi.
func (e *wordEvaluator) fillWord(s *wordScratch, blockBase, wi int) {
	d, lj, j := e.d, e.lj, e.j
	w0 := blockBase + wi*64
	bw := e.blockWords

	// Top region (levels 0..log j − 1): suffix threshold.
	var sufA uint64
	if lj >= 6 {
		sufA = windowMask(e.a - w0&(j-1))
	} else {
		sufA = e.sufPattern
	}

	// Bottom region (levels d − log j + 1..d): prefix threshold.
	var preB uint64
	if d-lj >= 6 {
		if w0>>uint(d-lj) < e.b {
			preB = ^uint64(0)
		}
	} else {
		sh := uint(d - lj)
		preB = windowMask((e.b - w0>>sh) << sh)
	}

	// Middle region: bucket each column's quota comparison as a level
	// threshold (see the package comment above).
	cols, midLevels, compSz := e.cols, e.midLevels, e.compSz
	for li := 0; li <= midLevels; li++ {
		s.clearAt[li] = 0
		s.setAt[li] = 0
	}
	var mid0 uint64
	for k := 0; k < 64; k++ {
		w := w0 + k
		q := e.p.quotas[w>>uint(d-lj)*j+w&(j-1)]
		m := w >> uint(lj) & (cols - 1)
		if q.TopInA {
			// Member iff li·cols + m < KA ⟺ li < ⌈(KA − m)/cols⌉.
			t := (q.KA - m + cols - 1) / cols
			if t > midLevels {
				t = midLevels
			}
			if t > 0 {
				mid0 |= 1 << uint(k)
				if t < midLevels {
					s.clearAt[t] |= 1 << uint(k)
				}
			}
		} else {
			// Member iff li·cols + m ≥ compSz − KA ⟺ li ≥ ⌈(compSz − KA − m)/cols⌉.
			num := compSz - q.KA - m
			t := 0
			if num > 0 {
				t = (num + cols - 1) / cols
			}
			if t <= 0 {
				mid0 |= 1 << uint(k)
			} else if t < midLevels {
				s.setAt[t] |= 1 << uint(k)
			}
		}
	}

	cur := mid0
	for i := 0; i <= d; i++ {
		var mask uint64
		switch {
		case i <= lj-1:
			mask = sufA
		case i >= d-lj+1:
			mask = preB
		default:
			if li := i - lj; li > 0 {
				cur = cur&^s.clearAt[li] | s.setAt[li]
			}
			mask = cur
		}
		s.masks[i*bw+wi] = mask
	}
}

// evalBlock evaluates one aligned block of blockCols columns: fills the
// per-level masks and counts side-A nodes plus straight and cross cut
// edges with popcounts. It allocates nothing.
func (e *wordEvaluator) evalBlock(s *wordScratch, blockBase int) (capacity, sizeA int) {
	d, lj, bw := e.d, e.lj, e.blockWords
	for wi := 0; wi < bw; wi++ {
		e.fillWord(s, blockBase, wi)
	}
	for _, m := range s.masks {
		sizeA += bits.OnesCount64(m)
	}
	for i := 0; i < d; i++ {
		rowI := s.masks[i*bw : (i+1)*bw]
		rowN := s.masks[(i+1)*bw : (i+2)*bw]
		straight := 0
		for wi := 0; wi < bw; wi++ {
			straight += bits.OnesCount64(rowI[wi] ^ rowN[wi])
		}
		capacity += straight
		tgt := i + 1
		idx := d - tgt // LSB bit index flipped by cross edges into level tgt
		switch {
		case tgt <= lj-1 || tgt >= d-lj+1:
			// The flipped bit is outside the suffix (resp. prefix) field
			// that decides membership on the target level, so every cross
			// partner matches its straight neighbour: same count.
			capacity += straight
		case idx >= 6:
			flip := 1 << uint(idx-6)
			for wi := 0; wi < bw; wi++ {
				capacity += bits.OnesCount64(rowI[wi] ^ rowN[wi^flip])
			}
		default:
			for wi := 0; wi < bw; wi++ {
				capacity += bits.OnesCount64(rowI[wi] ^ xorShuffle(rowN[wi], idx))
			}
		}
	}
	return capacity, sizeA
}

// evaluateWords fans the aligned blocks over solve.Run's workers, each
// summing the blocks it takes into its own counts. Cancellation is polled
// before each block; on cancellation the partial counts are meaningless,
// so it returns zeros and ctx's error.
func (p *Plan) evaluateWords(ctx context.Context, workers int) (capacity, sizeA int, err error) {
	e := newWordEvaluator(p)
	blocks := make([]int, p.N/e.blockCols) // each block's first column
	for i := range blocks {
		blocks[i] = i * e.blockCols
	}
	// One mask scratch per worker, so no more workers than blocks.
	type partial struct{ capacity, sizeA int }
	parts := make([]partial, min(solve.Workers(workers), len(blocks)))
	solve.Run(blocks, len(parts), func(w int, _ *solve.Queue[int]) func(int) {
		s, pt := e.newScratch(), &parts[w]
		return func(base int) {
			if ctx.Err() != nil {
				return
			}
			c, a := e.evalBlock(s, base)
			pt.capacity += c
			pt.sizeA += a
		}
	})
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	for _, pt := range parts {
		capacity += pt.capacity
		sizeA += pt.sizeA
	}
	metricWordsEvaluated.Add(int64(len(blocks) * (e.d + 1) * e.blockWords))
	metricWordBlocks.Add(int64(len(blocks)))
	return capacity, sizeA, nil
}
