// Package huffman implements the canonical Huffman codec used as the
// primary lossless encoder of FZMod-Default and FZMod-Quality. Following
// the paper's design (§3.3: "CPU-based Huffman encoding due to low GPU
// performance of Huffman encoders"), encoding is chunked so independent
// chunks are processed in parallel on the host. Decoding runs several
// chunks in lockstep, each lane a bit position into its chunk, and picks
// its loop by the stream's shape. A stream of short codes (below
// fourLaneBits bits per code on average: smooth fields) decodes two chunks
// at a time through a multi-symbol table that resolves a run of codes per
// lookup. A stream of long codes (rough fields, where a multi-table window
// mostly holds one code) decodes four chunks at a time in a dispatched
// kernel (dispatch.DecodeQuad) through the single-symbol table alone. That
// table has two levels: codes longer than its first-level index resolve
// through a small second level, and only codes past that take the
// canonical MSB-first walk over per-length code counts. Encoding reads
// neither table, so they are built on the first decode that needs them;
// it picks its emitter by the same shape rule, per chunk (emitByShape).
//
// The codec is built from a histogram of the quantization codes (provided
// by the histogram module) and never inspects the code stream itself, so an
// inaccurate histogram that assigns zero frequency to an occurring symbol
// is detected and reported as an error rather than producing a corrupt
// stream.
package huffman

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"fzmod/internal/device"
	"fzmod/internal/kernels/dispatch"
)

// maxCodeLen bounds code lengths; histograms inducing longer codes are
// rescaled (halved frequencies) until the bound holds.
const maxCodeLen = 32

// tableBits sizes the first level of the decode table: codes up to this
// length decode in one lookup.
const tableBits = 12

// linkBits and secondMax bound the decode table's second level. A
// first-level prefix of longer codes links to a second level as wide as
// its longest code needs, at most linkBits bits (codes up to tableBits +
// linkBits = 20 bits resolve there), and all second levels together hold
// at most secondMax entries, 8 KiB. HACC codebooks, whose codes stop at
// 15–17 bits, need 500–800. Codes past either bound take longCode.
const (
	linkBits  = 8
	secondMax = 1 << 11
)

// multiBits sizes the multi-symbol decode table: every multiBits-wide
// lookahead window is pre-decoded into the run of complete codes it
// contains, so skewed codebooks (1–2 bit dominant codes are the norm for
// quantization residuals) decode several symbols per table lookup. Kept
// below tableBits so the table stays L1-resident.
const multiBits = 10

// maxMultiSyms caps the symbols pre-decoded per window entry.
const maxMultiSyms = 6

// fourLaneBits is the average code length, in bits, from which Decode runs
// the four-lane single-symbol kernel (decodeQuad) instead of the paired
// multi-symbol loop (decodePair): a stream takes it when 8·payload bytes ≥
// fourLaneBits·codes. BenchmarkHuffmanDecode's shape sweep times both
// loops on Laplace-shaped streams, the kernel under each tier. On a 2-vCPU
// Xeon at Workers=1 the AVX2 kernel ties the pair loop at 3.0 bits/code
// (scale 1), wins from 3.9 (scale 2: 1.45×; scale 20 at 7.0 bits/code:
// 2.5×) and loses at 1.8 (scale 0.35: 1.3×); the pure-Go kernel loses at
// 3.9 (1.5×) and wins from 4.8 (1.1×, 1.6× at 7.0). The crossover is
// about 3 bits/code on AVX2 and between 3.9 and 4.8 elsewhere. Real
// streams sit far from both: NYX and CESM codes average 1.2–2.0 bits,
// HACC codes 7.1.
const fourLaneBits = 4

// chunkSize is the number of symbols encoded per independent chunk.
const chunkSize = 1 << 16

// Codec holds a canonical Huffman code for a dense alphabet [0, n).
type Codec struct {
	lengths []uint8 // per symbol; 0 = symbol absent
	// lengths32 mirrors lengths widened to uint32 for the vectorized
	// encode sizing pre-pass (dispatch.SumLengths gathers 32-bit table
	// entries; a uint8 table would need per-lane masking).
	lengths32 []uint32
	// enc packs each symbol's code as revCode<<8 | len, where revCode is
	// the canonical code with its bits reversed into stream order (the
	// stream packs code bits MSB-first at increasing LSB-first bit
	// positions). One load gives the emitter both halves.
	enc []uint64

	// Canonical decode state.
	minLen, maxLen int
	fastBits       int                    // first-level index width: min(maxLen, tableBits)
	firstCode      []uint32               // by length
	firstIdx       []int                  // by length
	count          [maxCodeLen + 1]uint32 // codes per length
	symByIdx       []uint16

	// Decode tables, built by decodeTable and multiTable on first use and
	// read-only after: Decode builds the ones its loop reads before any
	// lane runs. dec is the two-level single-symbol table in
	// dispatch.Lookup's format.
	decOnce, multiOnce sync.Once
	dec                []uint32
	multi              []multiEntry
}

// multiEntry pre-decodes one lookahead window: the first n complete codes
// it contains (bits consumed in total). n == 0 means the window's first
// code is longer than the window and the per-symbol paths must decode it.
type multiEntry struct {
	syms [maxMultiSyms]uint16
	n    uint8
	bits uint8
}

// noMulti stands in for the multi-symbol table where Decode has not built
// it: its one entry has n == 0, so every lookup misses and the per-symbol
// paths decode every code.
var noMulti = []multiEntry{{}}

// buildScratch holds the transient arrays of one codebook construction:
// frequencies, the sorted leaf keys, the internal-node weights (then
// depths) and the parent links. They are recycled through a package-level
// pool: a chunked or streaming run builds one codebook per chunk, and
// without recycling the tree scratch dominates steady-state allocation.
type buildScratch struct {
	freqs  []uint64
	keys   []uint64
	inner  []uint64
	parent []int32
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// grow returns s[:n], reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Build constructs a codec from a histogram. Every symbol with a nonzero
// count receives a code; at least one symbol must be present.
func Build(hist []uint32) (*Codec, error) {
	if len(hist) == 0 || len(hist) > 1<<16 {
		return nil, fmt.Errorf("huffman: alphabet size %d out of range", len(hist))
	}
	sc := buildPool.Get().(*buildScratch)
	defer buildPool.Put(sc)
	sc.freqs = grow(sc.freqs, len(hist))
	freqs := sc.freqs
	nonzero := 0
	for i, h := range hist {
		freqs[i] = uint64(h)
		if h > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		return nil, fmt.Errorf("huffman: empty histogram")
	}
	lengths := buildLengths(freqs, sc)
	for maxOf(lengths) > maxCodeLen {
		for i := range freqs {
			if freqs[i] > 1 {
				freqs[i] = (freqs[i] + 1) / 2
			}
		}
		lengths = buildLengths(freqs, sc)
	}
	return fromLengths(lengths)
}

func maxOf(lengths []uint8) int {
	m := 0
	for _, l := range lengths {
		if int(l) > m {
			m = int(l)
		}
	}
	return m
}

// buildLengths builds the Huffman tree by merging two queues (van Leeuwen
// 1976) and returns per-symbol code lengths. The leaves are sorted once as
// freq<<16 | sym keys; internal nodes are made in order of non-decreasing
// weight, so the second queue is their creation order. Each step joins the
// two lightest heads in (freq, idx) order, where a leaf's idx is its
// symbol and the k-th internal node's is n+k: a leaf wins a weight tie.
// That is the order a binary heap of all nodes pops, so the tree is the
// heap construction's. The scratch lives in sc; the returned lengths are
// freshly allocated (they outlive the call inside the Codec).
func buildLengths(freqs []uint64, sc *buildScratch) []uint8 {
	n := len(freqs)
	keys := grow(sc.keys, n)[:0]
	for s, f := range freqs {
		if f > 0 {
			keys = append(keys, f<<16|uint64(s))
		}
	}
	sc.keys = keys
	lengths := make([]uint8, n)
	m := len(keys)
	if m == 1 {
		// Single symbol: give it a 1-bit code.
		lengths[keys[0]&0xffff] = 1
		return lengths
	}
	slices.Sort(keys)
	sc.inner = grow(sc.inner, m-1)
	sc.parent = grow(sc.parent, n+m-1)
	inner, parent := sc.inner, sc.parent
	li, ii := 0, 0
	for k := range inner {
		var w uint64
		for j := 0; j < 2; j++ {
			if li < m && (ii == k || keys[li]>>16 <= inner[ii]) {
				w += keys[li] >> 16
				parent[keys[li]&0xffff] = int32(n + k)
				li++
			} else {
				w += inner[ii]
				parent[n+ii] = int32(n + k)
				ii++
			}
		}
		inner[k] = w
	}
	// Parents come after their children, so one backward pass turns the
	// weights into depths, the root's 0.
	inner[m-2] = 0
	for k := m - 3; k >= 0; k-- {
		inner[k] = inner[int(parent[n+k])-n] + 1
	}
	for _, key := range keys {
		s := key & 0xffff
		lengths[s] = uint8(inner[int(parent[s])-n] + 1)
	}
	return lengths
}

// fromLengths assigns canonical codes and the canonical decode state; the
// decode tables wait for decodeTable and multiTable.
func fromLengths(lengths []uint8) (*Codec, error) {
	c := &Codec{lengths: lengths}
	c.lengths32 = make([]uint32, len(lengths))
	for s, l := range lengths {
		c.lengths32[s] = uint32(l)
	}
	c.minLen, c.maxLen = maxCodeLen+1, 0
	count := &c.count
	for _, l := range lengths {
		if l == 0 {
			continue
		}
		count[l]++
		if int(l) < c.minLen {
			c.minLen = int(l)
		}
		if int(l) > c.maxLen {
			c.maxLen = int(l)
		}
	}
	if c.maxLen == 0 {
		return nil, fmt.Errorf("huffman: no coded symbols")
	}
	// Kraft check guards corrupted tables at parse time.
	var kraft uint64
	for l := 1; l <= c.maxLen; l++ {
		kraft += uint64(count[l]) << uint(c.maxLen-l)
	}
	if kraft > 1<<uint(c.maxLen) {
		return nil, fmt.Errorf("huffman: invalid code lengths (Kraft violation)")
	}

	c.firstCode = make([]uint32, c.maxLen+2)
	c.firstIdx = make([]int, c.maxLen+2)
	var code uint32
	idx := 0
	for l := c.minLen; l <= c.maxLen; l++ {
		c.firstCode[l] = code
		c.firstIdx[l] = idx
		code = (code + count[l]) << 1
		idx += int(count[l])
	}
	// Symbols ordered by (length, symbol) get consecutive canonical codes:
	// one ascending pass over the symbols hands each length its codes and
	// index slots in that order.
	c.symByIdx = make([]uint16, idx)
	c.enc = make([]uint64, len(lengths))
	var next [maxCodeLen + 1]uint32
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		off := next[l]
		next[l]++
		c.symByIdx[c.firstIdx[l]+int(off)] = uint16(s)
		rev := bits.Reverse32(c.firstCode[l]+off) >> (32 - uint(l))
		c.enc[s] = uint64(rev)<<8 | uint64(l)
	}

	c.fastBits = min(c.maxLen, tableBits)
	return c, nil
}

// decodeTable returns the single-symbol decode table, building it on the
// first call. Its first level has an entry per fastBits-bit window: the
// code at the window's front when that code is at most fastBits long, else
// a link to the second level of the window's prefix, as wide as the
// longest code under the prefix needs, at most linkBits. Second levels
// are placed behind the first in canonical order, so shorter (more
// frequent) codes come first, while they fit in secondMax entries; a
// prefix past that keeps a zero (missing) entry, as do codes longer than
// their second level resolves.
func (c *Codec) decodeTable() []uint32 {
	c.decOnce.Do(func() {
		fb := uint(c.fastBits)
		mask := uint32(1)<<fb - 1
		// Stream packs code bits MSB-first at increasing bit positions;
		// the window packs stream bits LSB-first — exactly revCode, whose
		// low fb bits are a long code's first-level prefix. In canonical
		// order (by length, then symbol) the codes under one prefix are
		// consecutive, so each walk meets a prefix once per run.
		long := func(visit func(rev uint32, s uint16, l uint)) {
			for l := fb + 1; l <= uint(c.maxLen); l++ {
				for _, s := range c.symByIdx[c.firstIdx[l]:][:c.count[l]] {
					visit(uint32(c.enc[s]>>8), s, l)
				}
			}
		}
		// width[p]: the second-level width prefix p needs, then 0 where
		// that second level does not fit.
		var width [1 << tableBits]uint8
		long(func(rev uint32, _ uint16, l uint) {
			width[rev&mask] = max(width[rev&mask], uint8(min(l-fb, linkBits)))
		})
		size, last := uint32(1)<<fb, ^uint32(0)
		long(func(rev uint32, _ uint16, _ uint) {
			if p := rev & mask; p != last {
				last = p
				if size+1<<width[p] <= 1<<fb+secondMax {
					size += 1 << width[p]
				} else {
					width[p] = 0
				}
			}
		})
		dec := make([]uint32, size)
		for s, l := range c.lengths {
			if l != 0 && uint(l) <= fb {
				rev := uint32(c.enc[s] >> 8)
				for fill := uint32(0); fill < 1<<(fb-uint(l)); fill++ {
					dec[rev|fill<<l] = uint32(s) | uint32(l)<<16
				}
			}
		}
		next := uint32(1) << fb
		long(func(rev uint32, s uint16, l uint) {
			p := rev & mask
			w := uint(width[p])
			if w == 0 {
				return
			}
			if dec[p] == 0 {
				dec[p] = 1<<31 | next<<8 | uint32(w)
				next += 1 << w
			}
			if r := l - fb; r <= w {
				for fill := uint32(0); fill < 1<<(w-r); fill++ {
					dec[dec[p]>>8&(1<<23-1)+(rev>>fb|fill<<r)] = uint32(s) | uint32(l)<<16
				}
			}
		})
		c.dec = dec
	})
	return c.dec
}

// multiTable returns the multi-symbol decode table, building it (and the
// single-symbol table it is simulated from) on the first call. Each window
// is decoded the way the first level would decode it; a symbol is
// committed only when its full code lies within the window's remaining
// bits, so a window never implies symbols the canonical decoder would not
// produce. A link ends the window: its code is longer than multiBits.
func (c *Codec) multiTable() []multiEntry {
	dec := c.decodeTable()
	c.multiOnce.Do(func() {
		mb := min(c.maxLen, multiBits)
		mask := uint32(1)<<uint(c.fastBits) - 1
		multi := make([]multiEntry, 1<<uint(mb))
		for w := range multi {
			acc := uint32(w)
			rem := uint32(mb)
			me := &multi[w]
			for me.n < maxMultiSyms {
				e := dec[acc&mask]
				l := e >> 16
				if int32(e) < 0 || l == 0 || l > rem {
					break
				}
				me.syms[me.n] = uint16(e)
				me.n++
				me.bits += uint8(l)
				acc >>= l
				rem -= l
			}
		}
		c.multi = multi
	})
	return c.multi
}

// Alphabet returns the dense alphabet size.
func (c *Codec) Alphabet() int { return len(c.lengths) }

// CodeLen returns the code length of symbol s (0 if absent).
func (c *Codec) CodeLen(s uint16) int { return int(c.lengths[s]) }

// ExpectedBits returns the exact encoded payload size in bits for a stream
// with the given histogram.
func (c *Codec) ExpectedBits(hist []uint32) uint64 {
	var bits uint64
	for s, n := range hist {
		if s < len(c.lengths) {
			bits += uint64(n) * uint64(c.lengths[s])
		}
	}
	return bits
}

// SerializeTable emits the code-length table (alphabet size + RLE lengths).
func (c *Codec) SerializeTable() []byte {
	out := binary.AppendUvarint(nil, uint64(len(c.lengths)))
	i := 0
	for i < len(c.lengths) {
		j := i
		for j < len(c.lengths) && c.lengths[j] == c.lengths[i] {
			j++
		}
		out = binary.AppendUvarint(out, uint64(j-i))
		out = append(out, c.lengths[i])
		i = j
	}
	return out
}

// ParseTable reconstructs a codec from SerializeTable output, returning the
// codec and the number of bytes consumed.
func ParseTable(data []byte) (*Codec, int, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n == 0 || n > 1<<16 {
		return nil, 0, fmt.Errorf("huffman: bad table header")
	}
	pos := k
	lengths := make([]uint8, 0, n)
	for uint64(len(lengths)) < n {
		run, k := binary.Uvarint(data[pos:])
		if k <= 0 || pos+k >= len(data) {
			return nil, 0, fmt.Errorf("huffman: truncated table")
		}
		pos += k
		l := data[pos]
		pos++
		if l > maxCodeLen {
			return nil, 0, fmt.Errorf("huffman: code length %d exceeds limit", l)
		}
		if uint64(len(lengths))+run > n {
			return nil, 0, fmt.Errorf("huffman: table run overflow")
		}
		for r := uint64(0); r < run; r++ {
			lengths = append(lengths, l)
		}
	}
	c, err := fromLengths(lengths)
	if err != nil {
		return nil, 0, err
	}
	return c, pos, nil
}

// Encode compresses codes into a chunked bitstream (table not included) in
// two passes at place (LaunchBlocks, so even a few chunks fan out). The
// first sizes every chunk exactly and validates its symbols; the header is
// then written and the output allocated once. The second emits each chunk
// straight into its own window of that output, so no chunk is copied and
// no scratch slab is taken.
func (c *Codec) Encode(p *device.Platform, place device.Place, codes []uint16) ([]byte, error) {
	return c.encode(p, place, codes, nil, emitByShape)
}

// emitLoop selects encode's emitter: by the chunk's shape, or (for tests
// and benchmarks that time one emitter on another's stream) forced.
type emitLoop uint8

const (
	// emitByShape runs dispatch.EmitCodes on a chunk of at most
	// fourLaneBits bits per code (8·bytes ≤ fourLaneBits·codes, from the
	// sizing pass) and its scalar twin on a chunk of longer codes. The
	// vector tier flushes eight codes at once and goes code by code when
	// they exceed 56 bits, which most eight-code groups of long codes do.
	// BenchmarkHuffmanEncode's shape sweep times both emitters.
	emitByShape emitLoop = iota
	emitKernel           // dispatch.EmitCodes on every chunk
	emitScalar           // dispatch.EmitCodesScalar on every chunk
)

// encode is Encode laying the stream behind prefix in the same buffer —
// Compress passes the serialized table, so table and stream are never
// concatenated.
func (c *Codec) encode(p *device.Platform, place device.Place, codes []uint16, prefix []byte, loop emitLoop) ([]byte, error) {
	nChunks := (len(codes) + chunkSize - 1) / chunkSize
	chunk := func(ci int) []uint16 { return codes[ci*chunkSize : min((ci+1)*chunkSize, len(codes))] }
	// Chunk sizes go into the tail slots and are folded into offsets in
	// place once the header is written: chunk ci spans offs[ci]:offs[ci+1].
	offs := make([]int, nChunks+1)
	errs := make([]error, nChunks)
	p.LaunchBlocks(place, nChunks, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			bits, err := c.chunkBits(chunk(ci))
			offs[ci+1], errs[ci] = int((bits+7)>>3), err
		}
	})
	size := len(prefix) + binary.MaxVarintLen64*(2+nChunks)
	for ci, err := range errs {
		if err != nil {
			return nil, err
		}
		size += offs[ci+1]
	}
	out := append(make([]byte, 0, size), prefix...)
	out = binary.AppendUvarint(out, uint64(len(codes)))
	out = binary.AppendUvarint(out, uint64(nChunks))
	for _, n := range offs[1:] {
		out = binary.AppendUvarint(out, uint64(n))
	}
	offs[0] = len(out)
	for ci := 1; ci <= nChunks; ci++ {
		offs[ci] += offs[ci-1]
	}
	out = out[:offs[nChunks]]
	p.LaunchBlocks(place, nChunks, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			codes := chunk(ci)
			emit := dispatch.EmitCodes
			if loop == emitScalar || loop == emitByShape && 8*(offs[ci+1]-offs[ci]) > fourLaneBits*len(codes) {
				emit = dispatch.EmitCodesScalar
			}
			// Cap-limited: a store past the window panics instead of
			// racing the next chunk's emitter.
			emitChunk(emit, c.enc, codes, out[offs[ci]:offs[ci+1]:offs[ci+1]])
		}
	})
	return out, nil
}

// chunkBits returns the exact encoded size of a chunk in bits, failing on
// any symbol the codebook has no code for. It doubles as the validation
// pass: emitChunk afterwards assumes every symbol is coded. The sum runs
// through the dispatched SIMD kernel (a gather-accumulate on AVX2); only
// when that reports a bad symbol does the scalar re-scan run to name the
// exact offender in the error.
func (c *Codec) chunkBits(codes []uint16) (uint64, error) {
	if bits, ok := dispatch.SumLengths(c.lengths32, codes); ok {
		return bits, nil
	}
	for _, s := range codes {
		if int(s) >= len(c.lengths) || c.lengths[s] == 0 {
			return 0, fmt.Errorf("huffman: symbol %d has no code (histogram missed it)", s)
		}
	}
	return 0, fmt.Errorf("huffman: sizing pre-pass failed without an uncoded symbol")
}

// emitChunk writes the bitstream of codes into out, which chunkBits sized
// exactly; every symbol must be coded. emit (dispatch.EmitCodes or its
// scalar twin) writes groups of codes while 32 bytes of out are left; its
// word stores may write past the completed bytes, and the byte-wise tail
// rewrites those as it finishes the chunk.
func emitChunk(emit func([]uint64, []uint16, []byte, uint64, uint) (int, int, uint64, uint), enc []uint64, codes []uint16, out []byte) {
	done, written, acc, nbits := emit(enc, codes, out, 0, 0)
	codes, out = codes[done:], out[written:]
	for _, s := range codes {
		e := enc[s]
		acc |= e >> 8 << (nbits & 63)
		for nbits += uint(e & 0xff); nbits >= 8; nbits -= 8 {
			out[0] = byte(acc)
			out = out[1:]
			acc >>= 8
		}
	}
	if nbits > 0 {
		out[0] = byte(acc)
	}
}

// Decode expands a chunked bitstream produced by Encode into dst, writing
// every slot (dst may hold any bytes), and returns it; a stream whose count
// is not len(dst) is refused before decoding, and nil dst allocates.
// Chunks decode in parallel at place, several at a time per LaunchBlocks
// range, so independent lookup → shift chains overlap in one loop. The
// loop follows the stream's shape: below fourLaneBits bits per code, pairs
// of chunks run decodePair over the multi-symbol table; from there on,
// groups of four run decodeQuad (dispatch.DecodeQuad) over the
// single-symbol table, and any 1–3 chunks left in a range run decodePair
// without the multi table. An odd last chunk runs the single-lane loop.
func (c *Codec) Decode(p *device.Platform, place device.Place, data []byte, dst []uint16) ([]uint16, error) {
	return c.decode(p, place, data, dst, loopByShape)
}

// decodeLoop selects Decode's loop: by the stream's shape, or (for tests
// and benchmarks that time one loop on another's stream) forced.
type decodeLoop uint8

const (
	loopByShape decodeLoop = iota
	loopPair               // decodePair over the multi-symbol table
	loopQuad               // decodeQuad (dispatch.DecodeQuad) over the single-symbol table
)

func (c *Codec) decode(p *device.Platform, place device.Place, data []byte, dst []uint16, loop decodeLoop) ([]uint16, error) {
	total, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("huffman: truncated stream header")
	}
	pos := k
	nChunks, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return nil, fmt.Errorf("huffman: truncated chunk count")
	}
	pos += k
	// Bound both counts by the bytes behind them before anything is
	// allocated: every chunk size takes at least one varint byte, and every
	// symbol at least minLen bits.
	if rest := uint64(len(data) - pos); nChunks > rest || total > 8*rest/uint64(c.minLen) {
		return nil, fmt.Errorf("huffman: header claims %d symbols in %d chunks, more than %d bytes can hold", total, nChunks, rest)
	}
	if want := (total + chunkSize - 1) / chunkSize; nChunks != want {
		return nil, fmt.Errorf("huffman: chunk count %d inconsistent with %d symbols", nChunks, total)
	}
	if dst == nil {
		dst = make([]uint16, total)
	} else if uint64(len(dst)) != total {
		return nil, fmt.Errorf("huffman: stream holds %d codes, destination %d", total, len(dst))
	}
	// Per-chunk payload offsets, pooled: Decode runs once per codec chunk
	// group on the decompression hot path, and the size/offset table was a
	// steady-state allocation. Sizes are parsed into the tail slots and
	// folded into offsets in place.
	pool := p.ScratchPool()
	offSlab := pool.GetI64(int(nChunks)+1, false)
	defer pool.PutI64(offSlab)
	offsets := offSlab.Data
	for i := 0; i < int(nChunks); i++ {
		sz, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("huffman: truncated chunk size table")
		}
		if sz > uint64(len(data)) {
			return nil, fmt.Errorf("huffman: stream shorter than chunk table claims")
		}
		pos += k
		offsets[i+1] = int64(sz)
	}
	offsets[0] = int64(pos)
	for i := 1; i <= int(nChunks); i++ {
		offsets[i] += offsets[i-1]
	}
	if offsets[nChunks] > int64(len(data)) {
		return nil, fmt.Errorf("huffman: stream shorter than chunk table claims")
	}
	if nChunks == 0 {
		return dst, nil
	}
	if loop == loopByShape {
		loop = loopPair
		if 8*uint64(offsets[nChunks]-offsets[0]) >= fourLaneBits*total {
			loop = loopQuad
		}
	}
	// The tables the loop reads are built here, before any lane runs.
	c.decodeTable()
	multi := noMulti
	if loop == loopPair {
		multi = c.multiTable()
	}

	var errMu sync.Mutex
	var firstErr error
	p.LaunchBlocks(place, int(nChunks), func(lo, hi int) {
		chunk := func(ci int) lane {
			start := ci * chunkSize
			return lane{in: data[offsets[ci]:offsets[ci+1]], out: dst[start:min(start+chunkSize, int(total))]}
		}
		var err error
		ci := lo
		if loop == loopQuad {
			for ; ci+3 < hi && err == nil; ci += 4 {
				err = c.decodeQuad(chunk(ci), chunk(ci+1), chunk(ci+2), chunk(ci+3))
			}
		}
		for ; ci+1 < hi && err == nil; ci += 2 {
			err = c.decodePair(multi, chunk(ci), chunk(ci+1))
		}
		if ci < hi && err == nil {
			err = c.decodeLane(multi, chunk(ci))
		}
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}
	})
	errMu.Lock()
	defer errMu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	return dst, nil
}

// lane is one chunk's decode: its payload, its codes, and how far the
// decode has got in each. A fresh chunk starts from zero.
type lane struct {
	in  []byte
	out []uint16
	bit uint // stream bits consumed
	oi  int  // codes written
}

// corruptAt is the error of a lane that finds no code at code index oi.
func corruptAt(oi int) error {
	return fmt.Errorf("huffman: corrupt chunk at symbol %d", oi)
}

// decodeQuad decodes four chunks in lockstep through the single-symbol
// table, for streams of long codes: there a multi-table window mostly holds
// one code, so four short lookup → shift chains in flight beat two longer
// ones. Lanes start fresh and advance together, so one output index serves
// all four. dispatch.DecodeQuad runs the batches: each lane's window is
// the 57 stream bits at its position, good for 57/maxLen steps, and the
// bounds are checked once per batch. The kernel stops before a step at
// which some lane's code is one the table does not resolve (longer than
// its second level, or no code at all), or when a batch no longer fits.
// While every lane can take one more step, it is taken here, with
// longCode, and the kernel re-entered; then each pair of lanes finishes
// in decodePair from where it stopped.
func (c *Codec) decodeQuad(l0, l1, l2, l3 lane) error {
	dec, fb := c.dec, uint(c.fastBits)
	in := [4][]byte{l0.in, l1.in, l2.in, l3.in}
	out := [4][]uint16{l0.out, l1.out, l2.out, l3.out}
	var bit [4]uint
	oi := 0
	for {
		oi, bit = dispatch.DecodeQuad(dec, c.fastBits, c.maxLen, in, out, bit, oi)
		if !stepFits(in, out, bit, oi) {
			break
		}
		for i := range in {
			acc := binary.LittleEndian.Uint64(in[i][bit[i]>>3:]) >> (bit[i] & 7)
			e := dispatch.Lookup(dec, fb, acc)
			sym, l := uint16(e), uint(e>>16)
			if e < 1<<16 {
				if sym, l = c.longCode(acc, 57); l == 0 {
					return corruptAt(oi)
				}
			}
			out[i][oi] = sym
			bit[i] += l
		}
		oi++
	}
	l0.bit, l1.bit, l2.bit, l3.bit = bit[0], bit[1], bit[2], bit[3]
	l0.oi, l1.oi, l2.oi, l3.oi = oi, oi, oi, oi
	if err := c.decodePair(noMulti, l0, l1); err != nil {
		return err
	}
	return c.decodePair(noMulti, l2, l3)
}

// stepFits reports whether every lane has 8 readable bytes at its bit
// position and a free slot at oi.
func stepFits(in [4][]byte, out [4][]uint16, bit [4]uint, oi int) bool {
	for i := range in {
		if bit[i]>>3+8 > uint(len(in[i])) || oi >= len(out[i]) {
			return false
		}
	}
	return true
}

// decodePair decodes two chunks in lockstep from where each lane stands:
// the two lookup → advance chains are independent, so their latencies
// overlap. Each lane is a bit position held in locals. A step loads the 8
// bytes at the lane's byte and shifts out the bits of that byte already
// consumed, which leaves at least 57 stream bits: more than any one table
// entry or long code consumes. There is nothing to refill, so a lane step
// is one load and one variable shift. With two lanes the loop is bound by
// issue slots, not latency: the fewer instructions per code, the faster it
// runs and the less it slows when another hardware thread shares the core.
// The loop runs while both lanes have 8 readable bytes and room for a full
// multi-table entry, so its body needs no input or output checks, and a
// multi-table hit is one unconditional maxMultiSyms-wide store. Each lane
// then finishes in decodeLane from where it stopped. multi is the
// multi-symbol table, or noMulti to decode code by code.
func (c *Codec) decodePair(multi []multiEntry, x, y lane) error {
	dec, fb := c.dec, uint(c.fastBits)
	mmask := uint64(len(multi) - 1)
	a, outA, bitA, oiA := x.in, x.out, x.bit, x.oi
	b, outB, bitB, oiB := y.in, y.out, y.bit, y.oi
	for bitA>>3+8 <= uint(len(a)) && bitB>>3+8 <= uint(len(b)) && oiA+maxMultiSyms <= len(outA) && oiB+maxMultiSyms <= len(outB) {
		accA := binary.LittleEndian.Uint64(a[bitA>>3:]) >> (bitA & 7)
		accB := binary.LittleEndian.Uint64(b[bitB>>3:]) >> (bitB & 7)
		if me := &multi[accA&mmask]; me.n > 0 {
			*(*[maxMultiSyms]uint16)(outA[oiA:]) = me.syms
			oiA += int(me.n)
			bitA += uint(me.bits)
		} else if e := dispatch.Lookup(dec, fb, accA); e >= 1<<16 {
			outA[oiA] = uint16(e)
			oiA++
			bitA += uint(e >> 16)
		} else if sym, l := c.longCode(accA, 57); l > 0 {
			outA[oiA] = sym
			oiA++
			bitA += l
		} else {
			return corruptAt(oiA)
		}
		if me := &multi[accB&mmask]; me.n > 0 {
			*(*[maxMultiSyms]uint16)(outB[oiB:]) = me.syms
			oiB += int(me.n)
			bitB += uint(me.bits)
		} else if e := dispatch.Lookup(dec, fb, accB); e >= 1<<16 {
			outB[oiB] = uint16(e)
			oiB++
			bitB += uint(e >> 16)
		} else if sym, l := c.longCode(accB, 57); l > 0 {
			outB[oiB] = sym
			oiB++
			bitB += l
		} else {
			return corruptAt(oiB)
		}
	}
	if err := c.decodeLane(multi, lane{a, outA, bitA, oiA}); err != nil {
		return err
	}
	return c.decodeLane(multi, lane{b, outB, bitB, oiB})
}

// decodeLane decodes one chunk from where its lane stands to its end. It
// runs a 64-bit bit reservoir whose bits at and above navail are zero or
// already-counted stream bits, so every table hit is checked against
// navail here. Eight bytes are loaded per refill with a single
// little-endian read, and a byte-wise scalar refill takes over inside the
// last word of the chunk. A multi-table hit is one unconditional array
// store while a whole entry fits in out, and a copy of its n symbols at the
// very end.
func (c *Codec) decodeLane(multi []multiEntry, l lane) error {
	data, out, oi := l.in, l.out, l.oi
	n := len(data)
	pos := int(l.bit >> 3)
	var acc uint64
	var navail uint
	if skip := l.bit & 7; skip != 0 {
		// The byte at pos is partly consumed: its remaining bits start
		// the reservoir.
		acc, navail = uint64(data[pos])>>skip, 8-skip
		pos++
	}
	dec, fb := c.dec, uint(c.fastBits)
	mmask := uint64(len(multi) - 1)
	for oi < len(out) {
		if navail < 32 {
			if pos+8 <= n {
				// Word refill: absorb as many whole bytes as fit; the
				// partial top byte is reloaded by the next refill.
				acc |= binary.LittleEndian.Uint64(data[pos:]) << navail
				adv := (63 - navail) >> 3
				pos += int(adv)
				navail += adv << 3
			} else {
				for navail <= 56 && pos < n {
					acc |= uint64(data[pos]) << navail
					pos++
					navail += 8
				}
			}
		}
		if me := &multi[acc&mmask]; me.n > 0 && uint(me.bits) <= navail && oi+int(me.n) <= len(out) {
			if oi+maxMultiSyms <= len(out) {
				*(*[maxMultiSyms]uint16)(out[oi:]) = me.syms
			} else {
				copy(out[oi:oi+int(me.n)], me.syms[:])
			}
			oi += int(me.n)
			acc >>= me.bits
			navail -= uint(me.bits)
			continue
		}
		if e := dispatch.Lookup(dec, fb, acc); e >= 1<<16 && uint(e>>16) <= navail {
			out[oi] = uint16(e)
			oi++
			acc >>= e >> 16
			navail -= uint(e >> 16)
			continue
		}
		sym, l := c.longCode(acc, navail)
		if l == 0 {
			return corruptAt(oi)
		}
		out[oi] = sym
		oi++
		acc >>= l
		navail -= l
	}
	return nil
}

// longCode decodes a code longer than the first-level index from the low
// navail stream bits of acc with the canonical MSB-first walk: acc is
// bit-reversed once so the next l stream bits are the top l bits, and
// length l matches when code − firstCode[l] < count[l] (unsigned, so codes
// below firstCode[l] wrap and miss). It returns l = 0 when no code of at
// most min(maxLen, navail) bits matches. The loops call it only when the
// decode table misses, so a code no longer than the first-level index
// never reaches here: the first level holds every such code.
func (c *Codec) longCode(acc uint64, navail uint) (uint16, uint) {
	rev := bits.Reverse64(acc)
	lMax := min(uint(c.maxLen), navail)
	for l := uint(c.fastBits) + 1; l <= lMax; l++ {
		if rel := uint32(rev>>(64-l)) - c.firstCode[l]; rel < c.count[l] {
			return c.symByIdx[c.firstIdx[l]+int(rel)], l
		}
	}
	return 0, 0
}

// Compress is the single-shot convenience: builds the codec from hist,
// serializes the table, and lays the encoded stream directly behind it in
// one buffer — no table‖payload concatenation copy, which on the chunked
// hot path used to re-copy every chunk's whole code stream.
func Compress(p *device.Platform, place device.Place, codes []uint16, hist []uint32) ([]byte, error) {
	c, err := Build(hist)
	if err != nil {
		return nil, err
	}
	return c.encode(p, place, codes, c.SerializeTable(), emitByShape)
}

// Decompress inverts Compress.
func Decompress(p *device.Platform, place device.Place, blob []byte) ([]uint16, error) {
	return DecompressInto(p, place, blob, nil)
}

// DecompressInto is Decompress into dst, under Codec.Decode's contract.
func DecompressInto(p *device.Platform, place device.Place, blob []byte, dst []uint16) ([]uint16, error) {
	c, n, err := ParseTable(blob)
	if err != nil {
		return nil, err
	}
	return c.Decode(p, place, blob[n:], dst)
}
