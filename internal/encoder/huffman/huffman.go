// Package huffman implements the canonical Huffman codec used as the
// primary lossless encoder of FZMod-Default and FZMod-Quality. Following
// the paper's design (§3.3: "CPU-based Huffman encoding due to low GPU
// performance of Huffman encoders"), encoding is chunked so independent
// chunks are processed in parallel on the host. Decoding runs two chunks
// in lockstep, each lane a bit position that indexes a multi-symbol and a
// single-symbol lookup table; codes longer than the table index take the
// canonical MSB-first walk over per-length code counts.
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
	"sync"

	"fzmod/internal/device"
	"fzmod/internal/kernels/dispatch"
)

// maxCodeLen bounds code lengths; histograms inducing longer codes are
// rescaled (halved frequencies) until the bound holds.
const maxCodeLen = 32

// tableBits sizes the fast decode table: codes up to this length decode in
// one lookup, longer ones take the canonical walk in longCode.
const tableBits = 12

// multiBits sizes the multi-symbol decode table: every multiBits-wide
// lookahead window is pre-decoded into the run of complete codes it
// contains, so skewed codebooks (1–2 bit dominant codes are the norm for
// quantization residuals) decode several symbols per table lookup. Kept
// below tableBits so the table stays L1-resident.
const multiBits = 10

// maxMultiSyms caps the symbols pre-decoded per window entry.
const maxMultiSyms = 6

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
	firstCode      []uint32               // by length
	firstIdx       []int                  // by length
	count          [maxCodeLen + 1]uint32 // codes per length
	symByIdx       []uint16
	fast           []fastEntry
	multi          []multiEntry
}

type fastEntry struct {
	sym uint16
	len uint8
}

// multiEntry pre-decodes one lookahead window: the first n complete codes
// it contains (bits consumed in total). n == 0 means the window's first
// code is longer than the window and the per-symbol paths must decode it.
type multiEntry struct {
	syms [maxMultiSyms]uint16
	n    uint8
	bits uint8
}

// buildScratch holds the transient arrays of one codebook construction
// (frequencies, parent links, heap). They are recycled through a
// package-level pool: a chunked or streaming run builds one codebook per
// chunk, and without recycling the tree scratch dominates steady-state
// allocation.
type buildScratch struct {
	freqs  []uint64
	parent []int32
	heap   nodeHeap
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

// node heap for tree construction. A hand-rolled binary min-heap rather
// than container/heap: the interface-based API boxes every Push/Pop
// element, which dominated allocation counts on the chunked hot path. The
// comparator is a strict total order (idx is unique), so the pop sequence —
// and therefore the tree — is identical to the boxed implementation.
type hnode struct {
	freq uint64
	idx  int // < len(alphabet): leaf symbol; else internal
}
type nodeHeap []hnode

func (h nodeHeap) less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].idx < h[j].idx // deterministic tie-break
}

func (h nodeHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h nodeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *nodeHeap) push(x hnode) {
	a := append(*h, x)
	*h = a
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if !a.less(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *nodeHeap) pop() hnode {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	x := a[n]
	*h = a[:n]
	a[:n].down(0)
	return x
}

// buildLengths runs the classic heap construction and returns per-symbol
// code lengths. The parent table and heap live in sc; the returned lengths
// are freshly allocated (they outlive the call inside the Codec).
func buildLengths(freqs []uint64, sc *buildScratch) []uint8 {
	n := len(freqs)
	// Capacity is sufficient for every append below (≤ 2n parent entries,
	// ≤ n heap nodes), so the backing arrays stored back into sc are the
	// ones the appends fill.
	sc.parent = grow(sc.parent, 2*n)
	sc.heap = grow(sc.heap, n)
	parent := sc.parent[:0]
	h := sc.heap[:0]
	for i, f := range freqs {
		parent = append(parent, -1)
		if f > 0 {
			h = append(h, hnode{f, i})
		}
	}
	if len(h) == 1 {
		// Single symbol: give it a 1-bit code.
		lengths := make([]uint8, n)
		lengths[h[0].idx] = 1
		return lengths
	}
	h.init()
	next := n
	for len(h) > 1 {
		a := h.pop()
		b := h.pop()
		parent = append(parent, -1)
		parent[a.idx] = int32(next)
		parent[b.idx] = int32(next)
		h.push(hnode{a.freq + b.freq, next})
		next++
	}
	lengths := make([]uint8, n)
	for i := 0; i < n; i++ {
		if freqs[i] == 0 {
			continue
		}
		d := 0
		for j := i; parent[j] >= 0; j = int(parent[j]) {
			d++
		}
		lengths[i] = uint8(d)
	}
	return lengths
}

// fromLengths assigns canonical codes and builds decode structures.
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

	// Fast table.
	tb := c.maxLen
	if tb > tableBits {
		tb = tableBits
	}
	c.fast = make([]fastEntry, 1<<uint(tb))
	for s, l := range lengths {
		if l == 0 || int(l) > tb {
			continue
		}
		// Stream packs code bits MSB-first at increasing bit positions;
		// lookahead index packs stream bits LSB-first — exactly revCode.
		base := uint32(c.enc[s] >> 8)
		for fill := 0; fill < 1<<uint(tb-int(l)); fill++ {
			c.fast[base|uint32(fill)<<uint(l)] = fastEntry{uint16(s), l}
		}
	}

	// Multi-symbol table: simulate fast-path decoding inside each window.
	// A symbol is committed only when its full code lies within the
	// window's remaining bits, so a window never implies symbols the
	// canonical decoder would not produce.
	mb := c.maxLen
	if mb > multiBits {
		mb = multiBits
	}
	c.multi = make([]multiEntry, 1<<uint(mb))
	for w := range c.multi {
		acc := uint32(w)
		rem := mb
		me := &c.multi[w]
		for me.n < maxMultiSyms {
			e := c.fast[acc&uint32(len(c.fast)-1)]
			if e.len == 0 || int(e.len) > rem {
				break
			}
			me.syms[me.n] = e.sym
			me.n++
			me.bits += e.len
			acc >>= e.len
			rem -= int(e.len)
		}
	}
	return c, nil
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
	return c.encode(p, place, codes, nil)
}

// encode is Encode laying the stream behind prefix in the same buffer —
// Compress passes the serialized table, so table and stream are never
// concatenated.
func (c *Codec) encode(p *device.Platform, place device.Place, codes []uint16, prefix []byte) ([]byte, error) {
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
			// Cap-limited: a store past the window panics instead of
			// racing the next chunk's emitter.
			emitChunk(c.enc, chunk(ci), out[offs[ci]:offs[ci+1]:offs[ci+1]])
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
// exactly; every symbol must be coded. acc holds the nbits < 8 pending
// stream bits, and out is resliced past every completed byte. Codes go four
// at a time: their codes are merged into one word w and their lengths
// summed into n, off the carried chain. When n is at most 56 the group
// costs one shift into acc and one unconditional 8-byte store; a wider
// group (rare: real codebooks stop at 15–19 bits) drops w and stores once
// per code. A store may write bytes past the completed ones, which later
// stores or the tail rewrite, so word stores run while 32 bytes remain and
// a byte-wise tail finishes the chunk. Shifts are masked to 63 so none
// needs a range check; a w built with larger shifts is never used.
func emitChunk(enc []uint64, codes []uint16, out []byte) {
	var acc uint64
	var nbits uint
	for ; len(codes) >= 4 && len(out) >= 32; codes = codes[4:] {
		e := enc[codes[0]]
		w, n := e>>8, uint(e&0xff)
		e = enc[codes[1]]
		w |= e >> 8 << (n & 63)
		n += uint(e & 0xff)
		e = enc[codes[2]]
		w |= e >> 8 << (n & 63)
		n += uint(e & 0xff)
		e = enc[codes[3]]
		w |= e >> 8 << (n & 63)
		n += uint(e & 0xff)
		if n <= 56 {
			acc |= w << (nbits & 63)
			nbits += n
			binary.LittleEndian.PutUint64(out, acc)
			out = out[nbits>>3:]
			acc >>= nbits &^ 7 & 63
			nbits &= 7
			continue
		}
		for _, s := range codes[:4] {
			e := enc[s]
			acc |= e >> 8 << (nbits & 63)
			nbits += uint(e & 0xff)
			binary.LittleEndian.PutUint64(out, acc)
			out = out[nbits>>3:]
			acc >>= nbits &^ 7 & 63
			nbits &= 7
		}
	}
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
// Chunks decode in parallel at place, each LaunchBlocks range two at a
// time (decodePair), so two independent lookup → shift chains overlap in
// one loop; an odd last chunk runs the single-lane loop.
func (c *Codec) Decode(p *device.Platform, place device.Place, data []byte, dst []uint16) ([]uint16, error) {
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

	var errMu sync.Mutex
	var firstErr error
	p.LaunchBlocks(place, int(nChunks), func(lo, hi int) {
		chunk := func(ci int) ([]byte, []uint16) {
			start := ci * chunkSize
			return data[offsets[ci]:offsets[ci+1]], dst[start:min(start+chunkSize, int(total))]
		}
		var err error
		ci := lo
		for ; ci+1 < hi && err == nil; ci += 2 {
			a, outA := chunk(ci)
			b, outB := chunk(ci + 1)
			err = c.decodePair(a, outA, b, outB)
		}
		if ci < hi && err == nil {
			d, o := chunk(ci)
			err = c.decodeLane(d, o, 0, 0)
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

// decodePair decodes two chunks in lockstep: the two lookup → advance
// chains are independent, so their latencies overlap. Each lane is a bit
// position held in locals. A step loads the 8 bytes at the lane's byte and
// shifts out the bits of that byte already consumed, which leaves at least
// 57 stream bits: more than any one table entry or long code consumes.
// There is nothing to refill, so a lane step is one load and one variable
// shift. With two lanes the loop is bound by issue slots, not latency: the
// fewer instructions per code, the faster it runs and the less it slows
// when another hardware thread shares the core. The loop runs while both
// lanes have 8 readable bytes and room for a full multi-table entry, so its
// body needs no input or output checks, and a multi-table hit is one
// unconditional maxMultiSyms-wide store. Each lane then finishes in
// decodeLane from where it stopped.
func (c *Codec) decodePair(a []byte, outA []uint16, b []byte, outB []uint16) error {
	fast, multi := c.fast, c.multi
	mask, mmask := uint64(len(fast)-1), uint64(len(multi)-1)
	var bitA, bitB uint
	var oiA, oiB int
	for bitA>>3+8 <= uint(len(a)) && bitB>>3+8 <= uint(len(b)) && oiA+maxMultiSyms <= len(outA) && oiB+maxMultiSyms <= len(outB) {
		accA := binary.LittleEndian.Uint64(a[bitA>>3:]) >> (bitA & 7)
		accB := binary.LittleEndian.Uint64(b[bitB>>3:]) >> (bitB & 7)
		if me := &multi[accA&mmask]; me.n > 0 {
			*(*[maxMultiSyms]uint16)(outA[oiA:]) = me.syms
			oiA += int(me.n)
			bitA += uint(me.bits)
		} else if e := fast[accA&mask]; e.len > 0 {
			outA[oiA] = e.sym
			oiA++
			bitA += uint(e.len)
		} else if sym, l := c.longCode(accA, 57); l > 0 {
			outA[oiA] = sym
			oiA++
			bitA += l
		} else {
			return fmt.Errorf("huffman: corrupt chunk at symbol %d", oiA)
		}
		if me := &multi[accB&mmask]; me.n > 0 {
			*(*[maxMultiSyms]uint16)(outB[oiB:]) = me.syms
			oiB += int(me.n)
			bitB += uint(me.bits)
		} else if e := fast[accB&mask]; e.len > 0 {
			outB[oiB] = e.sym
			oiB++
			bitB += uint(e.len)
		} else if sym, l := c.longCode(accB, 57); l > 0 {
			outB[oiB] = sym
			oiB++
			bitB += l
		} else {
			return fmt.Errorf("huffman: corrupt chunk at symbol %d", oiB)
		}
	}
	if err := c.decodeLane(a, outA, bitA, oiA); err != nil {
		return err
	}
	return c.decodeLane(b, outB, bitB, oiB)
}

// decodeLane decodes one chunk from stream bit position bit and output
// index oi to its end; a fresh chunk starts from zero. It runs a 64-bit bit
// reservoir whose bits at and above navail are zero or already-counted
// stream bits, so every table hit is checked against navail here. Eight
// bytes are loaded per refill with a single little-endian read, and a
// byte-wise scalar refill takes over inside the last word of the chunk. A
// multi-table hit is one unconditional array store while a whole entry
// fits in out, and a copy of its n symbols at the very end.
func (c *Codec) decodeLane(data []byte, out []uint16, bit uint, oi int) error {
	n := len(data)
	pos := int(bit >> 3)
	var acc uint64
	var navail uint
	if skip := bit & 7; skip != 0 {
		// The byte at pos is partly consumed: its remaining bits start
		// the reservoir.
		acc, navail = uint64(data[pos])>>skip, 8-skip
		pos++
	}
	mask := uint64(len(c.fast) - 1)
	fast, multi := c.fast, c.multi
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
		if e := fast[acc&mask]; e.len > 0 && uint(e.len) <= navail {
			out[oi] = e.sym
			oi++
			acc >>= e.len
			navail -= uint(e.len)
			continue
		}
		sym, l := c.longCode(acc, navail)
		if l == 0 {
			return fmt.Errorf("huffman: corrupt chunk at symbol %d", oi)
		}
		out[oi] = sym
		oi++
		acc >>= l
		navail -= l
	}
	return nil
}

// longCode decodes a code longer than the fast table's index from the low
// navail stream bits of acc with the canonical MSB-first walk: acc is
// bit-reversed once so the next l stream bits are the top l bits, and length l matches when code − firstCode[l] < count[l] (unsigned,
// so codes below firstCode[l] wrap and miss). It returns l = 0 when no code
// of at most min(maxLen, navail) bits matches. A code no longer than the
// fast index never reaches here: the fast table holds every such code.
func (c *Codec) longCode(acc uint64, navail uint) (uint16, uint) {
	rev := bits.Reverse64(acc)
	lMax := min(uint(c.maxLen), navail)
	// len(c.fast) is 1<<tb, so the walk starts at length tb+1.
	for l := uint(bits.Len(uint(len(c.fast)))); l <= lMax; l++ {
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
	return c.encode(p, place, codes, c.SerializeTable())
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
