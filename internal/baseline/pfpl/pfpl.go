// Package pfpl reproduces the PFPL baseline (§2.2, Fallin et al.): a
// portable CPU/GPU compressor with strict error-bound enforcement built
// from an efficient quantizer, delta coding, bitshuffle, and zero
// elimination. The zero-elimination stage is why the paper finds PFPL "can
// take smooth data and transform it into having long sequences of zeros
// which are eliminated by its last stage", giving it the best GPU-side
// ratios at loose bounds (Table 3).
//
// Strictness: values whose quantization cannot be represented exactly are
// carried verbatim in per-chunk raw escapes, so the bound holds on every
// input (PFPL's "guaranteed error bounds" property).
package pfpl

import (
	"encoding/binary"
	"fmt"
	"math"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/kernels"
	"fzmod/internal/kernels/dispatch"
	"fzmod/internal/preprocess"
)

const pipelineName = "pfpl"

// chunkValues is the independent processing granularity.
const chunkValues = 4096

// blockBytes is the zero-elimination granularity: fine 8-byte blocks, with
// the elimination applied recursively (the bitmap itself is zero-eliminated
// again), reproducing PFPL's repeated zero elimination that turns long
// zero runs into almost nothing.
const blockBytes = 8

// zeLevels is the recursion depth of the zero elimination.
const zeLevels = 2

// zeroEliminate compresses one level: bitmap of nonzero blocks ‖ blocks.
func zeroEliminate(src []byte) []byte {
	nBlocks := (len(src) + blockBytes - 1) / blockBytes
	bitmap := make([]byte, (nBlocks+7)/8)
	payload := make([]byte, 0, len(src)/4)
	for b := 0; b < nBlocks; b++ {
		lo, hi := b*blockBytes, (b+1)*blockBytes
		if hi > len(src) {
			hi = len(src)
		}
		zero := true
		for _, by := range src[lo:hi] {
			if by != 0 {
				zero = false
				break
			}
		}
		if !zero {
			bitmap[b/8] |= 1 << uint(b%8)
			payload = append(payload, src[lo:hi]...)
		}
	}
	out := make([]byte, 0, len(bitmap)+len(payload))
	out = append(out, bitmap...)
	return append(out, payload...)
}

// zeroExpand inverts zeroEliminate for an original length n, returning the
// restored bytes and how much of src was consumed.
func zeroExpand(src []byte, n int) ([]byte, int, error) {
	nBlocks := (n + blockBytes - 1) / blockBytes
	bmLen := (nBlocks + 7) / 8
	if len(src) < bmLen {
		return nil, 0, fmt.Errorf("pfpl: truncated ZE bitmap")
	}
	bitmap := src[:bmLen]
	pos := bmLen
	out := make([]byte, n)
	for b := 0; b < nBlocks; b++ {
		if bitmap[b/8]>>uint(b%8)&1 == 0 {
			continue
		}
		lo, hi := b*blockBytes, (b+1)*blockBytes
		if hi > n {
			hi = n
		}
		if pos+hi-lo > len(src) {
			return nil, 0, fmt.Errorf("pfpl: truncated ZE payload")
		}
		copy(out[lo:hi], src[pos:])
		pos += hi - lo
	}
	return out, pos, nil
}

// bitshuffle32 returns the 32 bit-planes of codes.
func bitshuffle32(codes []uint32) []byte {
	sh := make([]byte, 32*((len(codes)+7)/8))
	dispatch.Bitshuffle32(sh, codes)
	return sh
}

// maxLattice bounds representable quantizations; beyond it the chunk falls
// back to raw storage.
const maxLattice = 1 << 29

// Compressor implements core.Compressor.
type Compressor struct{}

// Name implements core.Compressor.
func (Compressor) Name() string { return pipelineName }

// chunk layout: 1 flag byte (0 = coded, 1 = raw) followed by either the
// raw float32 values or bitmap ‖ nonzero blocks of the bitshuffled
// delta-coded quantizations.
func encodeChunk(data []float32, inv2eb float64) []byte {
	n := len(data)
	codes := make([]uint32, n)
	var prev int32
	for i, v := range data {
		q := math.Round(float64(v) * inv2eb)
		if q > maxLattice || q < -maxLattice {
			// Raw escape keeps the bound strict.
			out := make([]byte, 1+4*n)
			out[0] = 1
			copy(out[1:], device.F32Bytes(data))
			return out
		}
		qi := int32(q)
		codes[i] = kernels.ZigZag(qi - prev)
		prev = qi
	}
	sh := bitshuffle32(codes)
	// Recursive zero elimination: level 1 over the shuffled planes, level
	// 2 over level 1's output (whose bitmap bytes are themselves mostly
	// zero on smooth data).
	lvl1 := zeroEliminate(sh)
	lvl2 := zeroEliminate(lvl1)
	out := make([]byte, 0, 5+len(lvl2))
	out = append(out, 0)
	out = binary.AppendUvarint(out, uint64(len(lvl1)))
	return append(out, lvl2...)
}

func decodeChunk(blob []byte, n int, scale float64, out []float32) error {
	if len(blob) < 1 {
		return fmt.Errorf("pfpl: empty chunk")
	}
	if blob[0] == 1 {
		if len(blob) < 1+4*n {
			return fmt.Errorf("pfpl: truncated raw chunk")
		}
		copy(out, device.BytesF32(blob[1:1+4*n]))
		return nil
	}
	shLen := 32 * ((n + 7) / 8)
	lvl1Len, k := binary.Uvarint(blob[1:])
	if k <= 0 {
		return fmt.Errorf("pfpl: truncated chunk header")
	}
	lvl1, _, err := zeroExpand(blob[1+k:], int(lvl1Len))
	if err != nil {
		return err
	}
	sh, _, err := zeroExpand(lvl1, shLen)
	if err != nil {
		return err
	}
	codes := make([]uint32, n)
	dispatch.Unbitshuffle32(codes, sh)
	var acc int32
	for i := 0; i < n; i++ {
		acc += kernels.UnZigZag(codes[i])
		out[i] = float32(float64(acc) * scale)
	}
	return nil
}

// Compress implements core.Compressor.
func (Compressor) Compress(p *device.Platform, data []float32, dims grid.Dims, eb preprocess.ErrorBound) ([]byte, error) {
	if dims.N() != len(data) {
		return nil, fmt.Errorf("pfpl: dims %v do not match %d values", dims, len(data))
	}
	// PFPL's REL mode is point-wise normalized absolute error (NOA),
	// which for a full-range normalization matches the other compressors'
	// range-relative bound (§4.2 note).
	absEB, _, err := preprocess.Resolve(p, device.Host, data, eb)
	if err != nil {
		return nil, err
	}
	n := len(data)
	inv2eb := 1.0 / (2 * absEB)
	nChunks := (n + chunkValues - 1) / chunkValues
	chunks := make([][]byte, nChunks)
	p.LaunchGrid(device.Host, nChunks, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			start, end := ci*chunkValues, (ci+1)*chunkValues
			if end > n {
				end = n
			}
			chunks[ci] = encodeChunk(data[start:end], inv2eb)
		}
	})

	payload := binary.AppendUvarint(nil, uint64(nChunks))
	for _, ch := range chunks {
		payload = binary.AppendUvarint(payload, uint64(len(ch)))
	}
	for _, ch := range chunks {
		payload = append(payload, ch...)
	}
	c := fzio.New(fzio.Header{Pipeline: pipelineName, Dims: dims, EB: absEB})
	if err := c.Add("payload", payload); err != nil {
		return nil, err
	}
	return c.Marshal()
}

// Decompress implements core.Compressor.
func (Compressor) Decompress(p *device.Platform, blob []byte) ([]float32, grid.Dims, error) {
	c, err := fzio.Unmarshal(blob)
	if err != nil {
		return nil, grid.Dims{}, err
	}
	if c.Header.Pipeline != pipelineName {
		return nil, grid.Dims{}, fmt.Errorf("pfpl: container built by %q", c.Header.Pipeline)
	}
	payload, err := c.Segment("payload")
	if err != nil {
		return nil, grid.Dims{}, err
	}
	dims := c.Header.Dims
	n := dims.N()
	nChunks64, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, grid.Dims{}, fmt.Errorf("pfpl: truncated chunk count")
	}
	if want := uint64((n + chunkValues - 1) / chunkValues); nChunks64 != want {
		return nil, grid.Dims{}, fmt.Errorf("pfpl: chunk count %d inconsistent with dims", nChunks64)
	}
	nChunks := int(nChunks64)
	pos := k
	sizes := make([]int, nChunks)
	for i := range sizes {
		sz, k := binary.Uvarint(payload[pos:])
		if k <= 0 {
			return nil, grid.Dims{}, fmt.Errorf("pfpl: truncated size table")
		}
		pos += k
		sizes[i] = int(sz)
	}
	offsets := make([]int, nChunks+1)
	offsets[0] = pos
	for i, sz := range sizes {
		offsets[i+1] = offsets[i] + sz
	}
	if offsets[nChunks] > len(payload) {
		return nil, grid.Dims{}, fmt.Errorf("pfpl: payload shorter than size table claims")
	}

	out := make([]float32, n)
	scale := 2 * c.Header.EB
	errs := make([]error, nChunks)
	p.LaunchGrid(device.Host, nChunks, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			start, end := ci*chunkValues, (ci+1)*chunkValues
			if end > n {
				end = n
			}
			errs[ci] = decodeChunk(payload[offsets[ci]:offsets[ci+1]], end-start, scale, out[start:end])
		}
	})
	for _, e := range errs {
		if e != nil {
			return nil, grid.Dims{}, e
		}
	}
	return out, dims, nil
}

// ZeroBlockFraction reports the fraction of shuffled blocks eliminated for
// a data sample — the statistic behind PFPL's loose-bound advantage; used
// by the ablation bench.
func ZeroBlockFraction(data []float32, absEB float64) float64 {
	if len(data) == 0 {
		return 0
	}
	inv2eb := 1.0 / (2 * absEB)
	codes := make([]uint32, len(data))
	var prev int32
	for i, v := range data {
		q := int32(math.Round(float64(v) * inv2eb))
		codes[i] = kernels.ZigZag(q - prev)
		prev = q
	}
	sh := bitshuffle32(codes)
	nBlocks := (len(sh) + blockBytes - 1) / blockBytes
	zero := 0
	for b := 0; b < nBlocks; b++ {
		lo, hi := b*blockBytes, (b+1)*blockBytes
		if hi > len(sh) {
			hi = len(sh)
		}
		z := true
		for _, by := range sh[lo:hi] {
			if by != 0 {
				z = false
				break
			}
		}
		if z {
			zero++
		}
	}
	return float64(zero) / float64(nBlocks)
}
