// Package lorenzo implements the multidimensional Lorenzo predictor with
// error-controlled dual quantization, the prediction module of
// FZMod-Default and FZMod-Speed. It reproduces the cuSZ design (§3.1):
// values are first pre-quantized onto the 2·eb lattice, the Lorenzo
// extrapolation runs in exact integer arithmetic on the lattice codes, and
// prediction residuals are emitted as bounded quantization codes with an
// escape mechanism for unpredictable points (outliers).
//
// As with the compressors in the paper, the error bound is guaranteed in
// exact arithmetic and therefore holds in float32 up to half a ULP of the
// reconstructed value — large-magnitude data at very tight bounds can
// exceed eb by |value|·2⁻²⁴ simply because float32 cannot represent values
// any closer.
//
// Because the residual operator is the separable difference
// (1-Sx)(1-Sy)(1-Sz) over lattice codes, reconstruction is exact: the
// decoder inverts it with running sums along each dimension, so the only
// error in the pipeline is the initial lattice rounding, which is ≤ eb by
// construction. That is what makes the bound strict end to end.
//
// Encode and decode are each one pass per row through a dispatched kernel
// over rolling accumulators, mirrors of each other. The encoder's
// LorenzoEncodeRow quantizes a value, subtracts the plane behind (one
// pooled plane of lattice values, rank 3), then the row above (one pooled
// row of the previous row's values after that step, rank ≥ 2), then its
// left neighbour's (a register), and emits the code — or the escape code
// 0 with the residual left-packed into the block's outlier values. Each
// accumulator is updated in place as the row passes, so no lattice of the
// chunk is ever stored. The decoder's LorenzoRow runs the same chain backwards (code →
// residual → x-scan → + row above → + plane behind → scale → store), and
// the escape codes say where each outlier value goes. In wrapping int32
// arithmetic the encoder's chained differences equal the direct stencil
// q[i]-q[i-1]-q[i-nx]+q[i-nx-1] (and its 3-D analogue), so its codes are
// the stencil's, and the decoder's sums invert them exactly.
//
// Encoding splits the slowest dimension into one block per worker. A
// block seeds its left value, row above or plane behind by quantizing the
// halo element, row or plane before it, so blocks never share an
// accumulator; decoding runs a chunk serially, and chunks run in parallel
// in the executor's task graph.
package lorenzo

import (
	"fmt"
	"sync/atomic"

	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/kernels/dispatch"
)

// DefaultRadius is the quantization-code radius used by cuSZ: residuals in
// (-radius, radius) map to codes 1..2·radius-1; code 0 is the outlier
// escape. The histogram and Huffman stages size their alphabets from it.
const DefaultRadius = 512

// maxLattice guards the int32 lattice arithmetic: pre-quantized magnitudes
// beyond this risk overflow in the residual computation, so such points are
// rejected with an error telling the caller to relax the bound.
const maxLattice = 1 << 29

// Quantized is the output of the prediction+quantization stage: one code
// per input value plus the compacted outlier set. It is the interchange
// format every primary encoder in the framework consumes.
type Quantized struct {
	Codes  []uint16 // len = Dims.N(); 0 means "outlier at this index"
	OutIdx []uint32 // ignored: Encode leaves it nil and Decode locates outliers by their escape codes
	OutVal []int32  // lattice residual at each escape code, in index order
	Radius int
}

// OutlierCount returns the number of escape-coded points.
func (q *Quantized) OutlierCount() int { return len(q.OutVal) }

// Encode runs prediction+quantization over data at place with absolute
// error bound eb. radius ≤ 0 selects DefaultRadius.
func Encode(p *device.Platform, place device.Place, data []float32, dims grid.Dims, eb float64, radius int) (*Quantized, error) {
	return EncodeInto(p, place, data, dims, eb, radius, nil)
}

// encBlock is one parallel unit of the encoder: a contiguous range of the
// field's slowest-varying dimension plus the pooled slab its outlier
// values are collected into. Values are stored in index order inside a
// block and blocks cover ascending index ranges, so concatenating the
// per-block values in block order yields them in the order of the escape
// codes.
type encBlock struct {
	lo, hi  int      // slow-dimension range [lo, hi)
	left    [1]int32 // rank 1: the quantized halo element, the row's first left
	valSlab *device.Slab[int32]
	outVal  []int32
}

// EncodeInto is Encode quantizing into a caller-provided codes slice of
// exactly dims.N() elements (any contents; every element is overwritten),
// so executors processing many chunks can recycle one code buffer instead
// of allocating per chunk. The returned Quantized aliases codes. A nil
// codes allocates, exactly like Encode.
//
// Overflow contract: when any pre-quantized magnitude exceeds the int32
// lattice guard (NaN and ±Inf included), EncodeInto returns an error and
// the contents of codes (and the would-be outlier set) are unspecified —
// blocks abandon work at the next row boundary once any block has
// observed an overflow, so partial garbage is never interpreted as a
// result.
func EncodeInto(p *device.Platform, place device.Place, data []float32, dims grid.Dims, eb float64, radius int, codes []uint16) (*Quantized, error) {
	if !dims.Valid() || dims.N() != len(data) {
		return nil, fmt.Errorf("lorenzo: dims %v do not match %d values", dims, len(data))
	}
	if eb <= 0 {
		return nil, fmt.Errorf("lorenzo: error bound must be positive, got %g", eb)
	}
	if codes != nil && len(codes) != dims.N() {
		return nil, fmt.Errorf("lorenzo: codes buffer has %d elements, want %d", len(codes), dims.N())
	}
	if radius <= 0 {
		radius = DefaultRadius
	}
	pool := p.ScratchPool()
	if codes == nil {
		codes = make([]uint16, dims.N())
	}

	// Partition the slowest dimension into one block per worker.
	slow := dims.SlowExtent()
	nBlocks := min(max(p.Workers(place), 1), slow)
	per := (slow + nBlocks - 1) / nBlocks
	blocks := make([]encBlock, 0, nBlocks)
	for lo := 0; lo < slow; lo += per {
		hi := min(lo+per, slow)
		blocks = append(blocks, encBlock{lo: lo, hi: hi, valSlab: pool.GetI32((hi-lo)*dims.PlaneElems(), false)})
	}

	var overflow atomic.Bool
	r32, scale := int32(radius), 1.0/(2*eb)
	p.LaunchBlocks(place, len(blocks), func(blo, bhi int) {
		for bi := blo; bi < bhi; bi++ {
			if !blocks[bi].encode(data, dims, codes, r32, scale, pool, &overflow) {
				overflow.Store(true)
				return
			}
		}
	})
	release := func() {
		for i := range blocks {
			pool.PutI32(blocks[i].valSlab)
		}
	}
	if overflow.Load() {
		release()
		return nil, fmt.Errorf("lorenzo: error bound %g too tight for data magnitude (lattice overflow); relax the bound", eb)
	}

	// Concatenate the per-block outlier values in block (= index) order.
	total := 0
	for i := range blocks {
		total += len(blocks[i].outVal)
	}
	outVal := make([]int32, 0, total)
	for i := range blocks {
		outVal = append(outVal, blocks[i].outVal...)
	}
	release()
	return &Quantized{Codes: codes, OutVal: outVal, Radius: radius}, nil
}

// encode codes the block's rows through the dispatched LorenzoEncodeRow
// kernel, plane by plane and row by row like DecodeInto, reporting false
// on a lattice overflow (its own or, at a row edge, another block's). The
// row above and the plane behind share one pooled slab, zeroed on
// checkout, and the row above is cleared per plane, so the field's first
// row and plane see zeros behind them; a block that starts inside the
// field seeds the accumulator of its rank from the halo before it
// instead.
func (b *encBlock) encode(data []float32, dims grid.Dims, codes []uint16, r32 int32, scale float64, pool *device.BufPool, overflow *atomic.Bool) bool {
	nx, ny := dims.X, dims.Y
	var above, behind []int32
	if dims.Rank() >= 2 {
		n := nx
		if dims.Rank() == 3 {
			n += nx * ny
		}
		s := pool.GetI32(n, true)
		defer pool.PutI32(s)
		above, behind = s.Data[:nx], s.Data[nx:]
	}

	// The block's x, y and z ranges: it splits the slowest dimension.
	x0, x1, y0, y1, z0, z1 := 0, nx, 0, ny, 0, dims.Z
	halo := b.left[:]
	switch dims.Rank() {
	case 1:
		x0, x1 = b.lo, b.hi
	case 2:
		y0, y1, halo = b.lo, b.hi, above
	default:
		z0, z1, halo = b.lo, b.hi, behind
	}
	if b.lo > 0 {
		first := b.lo * dims.PlaneElems()
		if !dispatch.QuantizeF32(data[first-len(halo):first], halo, scale, maxLattice) {
			return false
		}
	}

	vals := b.valSlab.Data
	for z := z0; z < z1; z++ {
		if z > z0 {
			clear(above)
		}
		for y := y0; y < y1; y++ {
			if overflow.Load() {
				return false // another block overflowed; abandon at the row edge
			}
			base := (z*ny + y) * nx
			var bh []int32
			if len(behind) > 0 {
				bh = behind[y*nx : (y+1)*nx]
			}
			_, done, used, ok := dispatch.LorenzoEncodeRow(data[base+x0:base+x1], scale, maxLattice, r32, b.left[0], above, bh, codes[base+x0:base+x1], vals)
			// vals has room for every value of the block, so only an
			// overflow stops a row short.
			if !ok || done < x1-x0 {
				return false
			}
			vals = vals[used:]
		}
	}
	b.outVal = b.valSlab.Data[:len(b.valSlab.Data)-len(vals)]
	return true
}

// Decode reconstructs the field from a Quantized stream. The result is
// within eb of the original input everywhere.
func Decode(p *device.Platform, place device.Place, q *Quantized, dims grid.Dims, eb float64) ([]float32, error) {
	out := make([]float32, dims.N())
	if err := DecodeInto(p, place, q, dims, eb, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto is Decode reconstructing into a caller-provided buffer of
// exactly dims.N() elements, so executors can scatter chunk results
// straight into the assembled output field instead of copying through a
// per-chunk allocation.
//
// The escape codes (code 0) give the outlier positions, and q.OutVal is
// consumed in storage order; q.OutIdx is not read. More escapes than
// values, or fewer, is an error.
//
// Decoding walks the field once, plane by plane and row by row, through
// the dispatched LorenzoRow kernel, which inverts the separable difference
// with running sums: the x-scan in a register, the y-scan in one pooled
// row (rank ≥ 2), the z-scan in one pooled plane (rank 3). Per element the
// sums are the same wrapping int32 additions as three whole-field prefix
// sums, so the field is identical. A chunk decodes serially; chunks run in
// parallel in the executor's task graph.
func DecodeInto(p *device.Platform, place device.Place, q *Quantized, dims grid.Dims, eb float64, out []float32) error {
	n := dims.N()
	if len(out) != n {
		return fmt.Errorf("lorenzo: output buffer has %d elements, want %d", len(out), n)
	}
	if len(q.Codes) != n {
		return fmt.Errorf("lorenzo: %d codes for dims %v (%d values)", len(q.Codes), dims, n)
	}
	if q.Radius <= 0 {
		return fmt.Errorf("lorenzo: invalid radius %d", q.Radius)
	}
	r32 := int32(q.Radius)
	scale := 2 * eb
	nx, ny, nz := dims.X, dims.Y, dims.Z

	// The y- and z-scan accumulators are pooled scratch, zeroed on
	// checkout: the first row of each plane and the first plane see zero
	// sums behind them.
	pool := p.ScratchPool()
	var above, behind []int32
	if dims.Rank() >= 2 {
		s := pool.GetI32(nx, true)
		defer pool.PutI32(s)
		above = s.Data
	}
	if dims.Rank() >= 3 {
		s := pool.GetI32(nx*ny, true)
		defer pool.PutI32(s)
		behind = s.Data
	}

	codes, vals := q.Codes, q.OutVal
	for z := 0; z < nz; z++ {
		if z > 0 {
			clear(above)
		}
		for y := 0; y < ny; y++ {
			base := (z*ny + y) * nx
			var bh []int32
			if behind != nil {
				bh = behind[y*nx : (y+1)*nx]
			}
			_, k, used := dispatch.LorenzoRow(codes[base:base+nx], vals, r32, scale, 0, above, bh, out[base:base+nx])
			if k < nx {
				return fmt.Errorf("lorenzo: more outlier escapes than the %d values", len(q.OutVal))
			}
			vals = vals[used:]
		}
	}
	if len(vals) != 0 {
		return fmt.Errorf("lorenzo: %d outlier values but only %d escapes", len(q.OutVal), len(q.OutVal)-len(vals))
	}
	return nil
}
