// Package fzg implements the FZ-GPU-style primary lossless encoder used by
// FZMod-Speed (§3.3): quantization codes are bit-shuffled within fixed-size
// tiles so that the near-zero residuals produced by a good predictor
// concentrate into all-zero bit-planes, then a per-tile dictionary bitmap
// eliminates the zero sub-blocks. The trade the paper describes holds by
// construction: one cheap pass with no tree or histogram (much faster than
// Huffman) at the cost of a coarser, block-granular compression ratio.
//
// There is one tile routine each way. packTile recentres and shuffles a
// tile of codes with one dispatch.Bitshuffle16 call, straight into the
// output staging, and squeezes the zero blocks out in place; Encode and
// CompressedSize both run it. unpackTile, Decode's, spreads a tile's blocks
// back over zeroed planes and unshuffles, un-recentring on the way, into
// the caller's slice. Nothing field-sized is allocated besides the returned
// blob or codes: the staging is one slab of the platform's scratch pool,
// written densely, and tiles are worked on in fixed spans so the bytes do
// not depend on the worker count.
package fzg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"fzmod/internal/device"
	"fzmod/internal/kernels/dispatch"
)

// tileValues is the number of uint16 codes per independent tile.
const tileValues = 1024

// planeBytes is the per-plane byte count of a full tile (1024 values / 8).
const planeBytes = tileValues / 8

// tileBytes is the shuffled size of one tile (16 planes).
const tileBytes = 16 * planeBytes

// blockBytes is the zero-elimination granularity.
const blockBytes = 32

// blocksPerTile = 2048/32 = 64, so one uint64 bitmap per tile.
const blocksPerTile = tileBytes / blockBytes

// spanTiles is the unit of parallel work: a span's tiles are coded one
// after another, its non-zero blocks dense in its own stretch of staging.
const spanTiles = 64

// ErrCorrupt is wrapped by every error Decode returns.
var ErrCorrupt = errors.New("fzg: corrupt stream")

// packTile codes one tile: codes (at most tileValues of them) are
// zigzag-remapped around center — or taken raw when center is 0 — and
// shuffled into dst[:tileBytes] by the one kernel call, then the non-zero
// blocks are moved up to the front of dst in order. It returns the bitmap
// of non-zero blocks and the bytes they take. tile is tileValues of scratch,
// used for a short last tile only.
func packTile(dst []byte, tile, codes []uint16, center uint16) (bm uint64, n int) {
	dst = dst[:tileBytes]
	if len(codes) < tileValues {
		// Pad with the center, which recentres to the zero the format pads
		// a short tile with.
		tile = tile[:tileValues]
		for i := copy(tile, codes); i < tileValues; i++ {
			tile[i] = center
		}
		codes = tile
	}
	dispatch.Bitshuffle16(dst, codes, center)
	// A block lands at or before where it was read, so compacting in place
	// never overwrites a block still to come; a zero block is written too
	// and then overwritten by the next one, which keeps the loop free of
	// data-dependent branches.
	for b := 0; b < blocksPerTile; b++ {
		blk := dst[b*blockBytes : (b+1)*blockBytes]
		w0, w1 := binary.LittleEndian.Uint64(blk), binary.LittleEndian.Uint64(blk[8:])
		w2, w3 := binary.LittleEndian.Uint64(blk[16:]), binary.LittleEndian.Uint64(blk[24:])
		out := dst[n : n+blockBytes]
		binary.LittleEndian.PutUint64(out, w0)
		binary.LittleEndian.PutUint64(out[8:], w1)
		binary.LittleEndian.PutUint64(out[16:], w2)
		binary.LittleEndian.PutUint64(out[24:], w3)
		any := w0 | w1 | w2 | w3
		nonzero := (any | -any) >> 63
		bm |= nonzero << uint(b)
		n += int(nonzero) * blockBytes
	}
	return bm, n
}

// unpackTile inverts packTile into out (at most tileValues codes): blocks
// holds the tile's non-zero blocks, bm says where they go. planes and tile
// are tileBytes and tileValues of scratch.
func unpackTile(out []uint16, blocks []byte, bm uint64, center uint16, planes []byte, tile []uint16) {
	planes = planes[:tileBytes]
	clear(planes)
	for ; bm != 0; bm &= bm - 1 {
		b := bits.TrailingZeros64(bm)
		copy(planes[b*blockBytes:(b+1)*blockBytes], blocks)
		blocks = blocks[blockBytes:]
	}
	if len(out) == tileValues {
		dispatch.Unbitshuffle16(out, planes, center)
		return
	}
	tile = tile[:tileValues]
	dispatch.Unbitshuffle16(tile, planes, center)
	copy(out, tile)
}

// payloadBytes is the size of the non-zero blocks a bitmap table stands for.
func payloadBytes(table []byte) int {
	blocks := 0
	for ; len(table) >= 8; table = table[8:] {
		blocks += bits.OnesCount64(binary.LittleEndian.Uint64(table))
	}
	return blocks * blockBytes
}

// tileSpan returns the tiles [lo, hi) of span s.
func tileSpan(s, nTiles int) (lo, hi int) {
	return s * spanTiles, min((s+1)*spanTiles, nTiles)
}

// Encode compresses codes. center is the alphabet value representing a
// zero residual (the quantizer radius): codes are zigzag-remapped (wrapping,
// a bijection on uint16) around it before shuffling so that near-perfect
// predictions concentrate into the low bit-planes, which is where the
// dictionary stage gets its wins — the fused FZ-GPU kernel performs the same
// recentering inline after its Lorenzo stage. Pass center 0 to encode raw
// values.
//
// Layout: uvarint(n) ‖ uvarint(center) ‖ bitmaps (8 B per tile) ‖
// concatenated nonzero 32-byte blocks. Spans of tiles are processed in
// parallel.
func Encode(p *device.Platform, place device.Place, codes []uint16, center int) []byte {
	n := len(codes)
	nTiles := (n + tileValues - 1) / tileValues
	nSpans := (nTiles + spanTiles - 1) / spanTiles
	pool := p.ScratchPool()

	// Staging: the bitmap table, then a worst-case stretch per span of
	// which only the front — the span's non-zero blocks — is ever touched.
	staging := pool.GetBytes(nTiles*(8+tileBytes), false)
	table, spans := staging.Data[:nTiles*8], staging.Data[nTiles*8:]
	p.LaunchBlocks(place, nSpans, func(slo, shi int) {
		tile := pool.GetU16(tileValues, false)
		for s := slo; s < shi; s++ {
			lo, hi := tileSpan(s, nTiles)
			dst := spans[lo*tileBytes : hi*tileBytes]
			for t := lo; t < hi; t++ {
				bm, k := packTile(dst, tile.Data, codes[t*tileValues:min((t+1)*tileValues, n)], uint16(center))
				binary.LittleEndian.PutUint64(table[8*t:], bm)
				dst = dst[k:]
			}
		}
		pool.PutU16(tile)
	})

	var head [2 * binary.MaxVarintLen64]byte
	headLen := binary.PutUvarint(head[:], uint64(n))
	headLen += binary.PutUvarint(head[headLen:], uint64(center))
	out := make([]byte, 0, headLen+len(table)+payloadBytes(table))
	out = append(out, head[:headLen]...)
	out = append(out, table...)
	for s := 0; s < nSpans; s++ {
		lo, hi := tileSpan(s, nTiles)
		out = append(out, spans[lo*tileBytes:][:payloadBytes(table[8*lo:8*hi])]...)
	}
	pool.PutBytes(staging)
	return out
}

// Decode inverts Encode.
func Decode(p *device.Platform, place device.Place, blob []byte) ([]uint16, error) {
	return DecodeInto(p, place, blob, nil)
}

// DecodeInto is Decode writing every code into dst, of any contents, and
// returning it; a stream whose count is not len(dst) is refused before
// decoding, and nil dst allocates. The count is checked against the bitmap
// table actually present first, so the decoded size is at most 128 codes
// per byte of blob; every error wraps ErrCorrupt.
func DecodeInto(p *device.Platform, place device.Place, blob []byte, dst []uint16) ([]uint16, error) {
	n64, k := binary.Uvarint(blob)
	if k <= 0 {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	c64, k2 := binary.Uvarint(blob[k:])
	if k2 <= 0 {
		return nil, fmt.Errorf("%w: truncated center field", ErrCorrupt)
	}
	if c64 > 0xFFFF {
		return nil, fmt.Errorf("%w: center %d is not a 16-bit code", ErrCorrupt, c64)
	}
	body := blob[k+k2:]
	nTiles64 := n64 / tileValues
	if n64%tileValues != 0 {
		nTiles64++
	}
	if nTiles64 > uint64(len(body)/8) || n64 > math.MaxInt {
		return nil, fmt.Errorf("%w: %d codes need a longer bitmap table than %d bytes hold", ErrCorrupt, n64, len(body))
	}
	n, nTiles, center := int(n64), int(nTiles64), uint16(c64)
	table, payload := body[:nTiles*8], body[nTiles*8:]
	if need := payloadBytes(table); len(payload) < need {
		return nil, fmt.Errorf("%w: stream shorter than payload (%d < %d)", ErrCorrupt, len(payload), need)
	}

	if dst == nil {
		dst = make([]uint16, n)
	} else if len(dst) != n {
		return nil, fmt.Errorf("%w: stream holds %d codes, destination %d", ErrCorrupt, n, len(dst))
	}
	nSpans := (nTiles + spanTiles - 1) / spanTiles
	pool := p.ScratchPool()
	p.LaunchBlocks(place, nSpans, func(slo, shi int) {
		planes, tile := pool.GetBytes(tileBytes, false), pool.GetU16(tileValues, false)
		lo, hi := slo*spanTiles, min(shi*spanTiles, nTiles)
		blocks := payload[payloadBytes(table[:8*lo]):]
		for t := lo; t < hi; t++ {
			bm := binary.LittleEndian.Uint64(table[8*t:])
			unpackTile(dst[t*tileValues:min((t+1)*tileValues, n)], blocks, bm, center, planes.Data, tile.Data)
			blocks = blocks[bits.OnesCount64(bm)*blockBytes:]
		}
		pool.PutBytes(planes)
		pool.PutU16(tile)
	})
	return dst, nil
}

// CompressedSize reports what Encode would produce without materializing
// it, for ratio estimation.
func CompressedSize(codes []uint16, center int) int {
	n := len(codes)
	size := 12 // varint bounds
	dst, tile := make([]byte, tileBytes), make([]uint16, tileValues)
	for lo := 0; lo < n; lo += tileValues {
		_, k := packTile(dst, tile, codes[lo:min(lo+tileValues, n)], uint16(center))
		size += 8 + k
	}
	return size
}
