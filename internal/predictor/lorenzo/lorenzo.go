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
// The decoder is one pass per row through the dispatched LorenzoRow
// kernel (code → residual → x-scan → + row above → + plane behind →
// scale → store); the y- and z-sums live in one pooled row and one pooled
// plane, and the escape codes say where each outlier value goes.
//
// Encoder kernel structure: the hot loops are rank-specialized row kernels.
// With a SIMD dispatch tier installed (dispatch.VectorRows) each row runs
// in two vector phases — quantize the row onto the lattice, then emit codes
// from the stored lattice with the stencil difference kernel, recovering
// the rare outliers afterwards by re-deriving the residual at each escape
// (in-range codes are always nonzero, so code 0 identifies escapes
// exactly). Without a vector tier the rows fuse pre-quantization with
// residual+code emission in one scalar pass, so the lattice is walked once
// while hot in cache; both structures produce bit-identical codes and
// outlier streams. All neighbor accesses are direct stride offsets
// (q[i]-q[i-1]-q[i-nx]+q[i-nx-1] and the 3-D analogue). Coordinate
// arithmetic appears only at block edges, where each parallel block
// re-quantizes the single halo row/plane preceding it into private scratch
// so blocks never read lattice entries another block writes.
package lorenzo

import (
	"fmt"
	"math"
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

// encBlock is one parallel unit of the fused encode kernel: a contiguous
// range of the field's slowest-varying dimension plus the pooled slab its
// outlier values are collected into. Values are appended in index order
// inside a block and blocks cover ascending index ranges, so concatenating
// the per-block values in block order yields them in the order of the
// escape codes.
type encBlock struct {
	lo, hi  int // slow-dimension range [lo, hi)
	valSlab *device.Slab[int32]
	outVal  []int32
}

// add records one escape-coded point's residual. outVal's capacity covers
// every element of the block, so the append never reallocates.
func (b *encBlock) add(d int32) {
	b.outVal = append(b.outVal, d)
}

// EncodeInto is Encode quantizing into a caller-provided codes slice of
// exactly dims.N() elements (any contents; every element is overwritten),
// so executors processing many chunks can recycle one code buffer instead
// of allocating per chunk. The returned Quantized aliases codes. A nil
// codes allocates, exactly like Encode.
//
// Overflow contract: when any pre-quantized magnitude exceeds the int32
// lattice guard, EncodeInto returns an error and the contents of codes
// (and the would-be outlier set) are unspecified — blocks abandon work at
// the next row boundary once any block has observed an overflow, so
// partial garbage is never interpreted as a result.
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
	n := dims.N()
	ebx2r := 1.0 / (2 * eb)
	pool := p.ScratchPool()
	if codes == nil {
		codes = make([]uint16, n)
	}

	// The lattice is pooled scratch — it dies inside this call, so
	// steady-state encoding reuses the same slab chunk after chunk. The
	// fused kernels write every element, so it needs no clearing.
	latticeSlab := pool.GetI32(n, false)
	lattice := latticeSlab.Data

	// Partition the slowest dimension into one block per worker. Each
	// block walks its rows once, fusing pre-quantization with residual
	// emission; the first row/plane of a block needs the lattice of the
	// row/plane before it, which the block re-quantizes into private halo
	// scratch (pre-quantization is deterministic per element, so the
	// duplicate of that one boundary row is exact and race-free).
	slow := dims.SlowExtent()
	nBlocks := p.Workers(place)
	if nBlocks > slow {
		nBlocks = slow
	}
	if nBlocks < 1 {
		nBlocks = 1
	}
	per := (slow + nBlocks - 1) / nBlocks
	blocks := make([]encBlock, 0, nBlocks)
	plane := dims.PlaneElems()
	for lo := 0; lo < slow; lo += per {
		hi := lo + per
		if hi > slow {
			hi = slow
		}
		elems := (hi - lo) * plane
		b := encBlock{lo: lo, hi: hi, valSlab: pool.GetI32(elems, false)}
		b.outVal = b.valSlab.Data[:0]
		blocks = append(blocks, b)
	}

	var overflow atomic.Bool
	r32 := int32(radius)
	p.LaunchBlocks(place, len(blocks), func(blo, bhi int) {
		for bi := blo; bi < bhi; bi++ {
			b := &blocks[bi]
			var ok bool
			switch dims.Rank() {
			case 1:
				ok = encodeBlock1D(data, lattice, codes, b, r32, ebx2r)
			case 2:
				ok = encodeBlock2D(data, lattice, codes, b, dims.X, r32, ebx2r, pool, &overflow)
			default:
				ok = encodeBlock3D(data, lattice, codes, b, dims.X, dims.Y, r32, ebx2r, pool, &overflow)
			}
			if !ok {
				overflow.Store(true)
				return
			}
		}
	})
	release := func() {
		for i := range blocks {
			pool.PutI32(blocks[i].valSlab)
		}
		pool.PutI32(latticeSlab)
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

// quantRow pre-quantizes one contiguous run of values onto the 2·eb
// lattice through the dispatched SIMD kernel, reporting false on overflow
// (NaN and ±Inf count as overflow in every tier). It is used for the
// private halo rows/planes at block edges and the vector rows' first
// phase; scalar-tier interior quantization is fused into the residual
// kernels below.
func quantRow(data []float32, q []int32, ebx2r float64) bool {
	return dispatch.QuantizeF32(data, q, ebx2r, maxLattice)
}

// minVecRow is the shortest row routed to the two-phase vector kernels; a
// row below one vector group per phase gains nothing over the fused walk.
const minVecRow = 16

// fusedRow1 quantizes and encodes a row with no row above — the first row
// of a 1-D or 2-D field (and the first row of a 3-D field's first plane).
// prev seeds the running chain: 0 at the field origin, the halo value at a
// 1-D block edge. d = q[x] - q[x-1].
func fusedRow1(data []float32, q []int32, codes []uint16, prev int32, r32 int32, ebx2r float64, b *encBlock) bool {
	for x, v := range data {
		t := math.Round(float64(v) * ebx2r)
		if !(t <= maxLattice && t >= -maxLattice) {
			return false
		}
		cur := int32(t)
		q[x] = cur
		d := cur - prev
		prev = cur
		if d > -r32 && d < r32 {
			codes[x] = uint16(d + r32)
		} else {
			codes[x] = 0
			b.add(d)
		}
	}
	return true
}

// fusedRow2 quantizes and encodes a row with one row above (up): the
// general 2-D row, and — because the terms along a singleton axis vanish —
// also the first row of every 3-D plane when up is the plane behind's
// first row. d = q[i] - q[i-1] - up[x] + up[x-1]; at x = 0 the x-1 terms
// are zero.
func fusedRow2(data []float32, q, up []int32, codes []uint16, r32 int32, ebx2r float64, b *encBlock) bool {
	t := math.Round(float64(data[0]) * ebx2r)
	if !(t <= maxLattice && t >= -maxLattice) {
		return false
	}
	left := int32(t)
	q[0] = left
	upLeft := up[0]
	d := left - upLeft
	if d > -r32 && d < r32 {
		codes[0] = uint16(d + r32)
	} else {
		codes[0] = 0
		b.add(d)
	}
	for x := 1; x < len(data); x++ {
		t := math.Round(float64(data[x]) * ebx2r)
		if !(t <= maxLattice && t >= -maxLattice) {
			return false
		}
		cur := int32(t)
		q[x] = cur
		u := up[x]
		d := cur - left - u + upLeft
		left, upLeft = cur, u
		if d > -r32 && d < r32 {
			codes[x] = uint16(d + r32)
		} else {
			codes[x] = 0
			b.add(d)
		}
	}
	return true
}

// fusedRow3 quantizes and encodes a full 3-D interior row: up is the row
// above in the same plane, back the same row in the plane behind, backUp
// the row above in the plane behind.
// d = q[i] - q[i-1] - up[x] + up[x-1] - back[x] + back[x-1] + backUp[x] - backUp[x-1];
// at x = 0 the x-1 terms are zero.
func fusedRow3(data []float32, q, up, back, backUp []int32, codes []uint16, r32 int32, ebx2r float64, b *encBlock) bool {
	t := math.Round(float64(data[0]) * ebx2r)
	if !(t <= maxLattice && t >= -maxLattice) {
		return false
	}
	left := int32(t)
	q[0] = left
	upLeft, backLeft, backUpLeft := up[0], back[0], backUp[0]
	d := left - upLeft - backLeft + backUpLeft
	if d > -r32 && d < r32 {
		codes[0] = uint16(d + r32)
	} else {
		codes[0] = 0
		b.add(d)
	}
	for x := 1; x < len(data); x++ {
		t := math.Round(float64(data[x]) * ebx2r)
		if !(t <= maxLattice && t >= -maxLattice) {
			return false
		}
		cur := int32(t)
		q[x] = cur
		u, bk, bu := up[x], back[x], backUp[x]
		d := cur - left - u + upLeft - bk + backLeft + bu - backUpLeft
		left, upLeft, backLeft, backUpLeft = cur, u, bk, bu
		if d > -r32 && d < r32 {
			codes[x] = uint16(d + r32)
		} else {
			codes[x] = 0
			b.add(d)
		}
	}
	return true
}

// The two-phase vector rows: quantize the whole row onto the lattice with
// the dispatched SIMD kernel, emit codes from the stored lattice with the
// stencil difference kernel (the x = 0 element, whose x-1 terms come from
// the seed/halo, stays scalar), then re-derive the residual at each escape
// code. In-range residuals always produce a nonzero code (d > -r32 makes
// d+r32 >= 1), so code 0 identifies exactly the points the fused scalar
// rows escape — the two structures emit bit-identical streams.

// vecRow1 is fusedRow1 in two vector phases.
func vecRow1(data []float32, q []int32, codes []uint16, prev int32, r32 int32, ebx2r float64, b *encBlock) bool {
	if !quantRow(data, q, ebx2r) {
		return false
	}
	if d := q[0] - prev; d > -r32 && d < r32 {
		codes[0] = uint16(d + r32)
	} else {
		codes[0] = 0
		b.add(d)
	}
	dispatch.DiffCodes1(q, codes[1:], r32)
	for x := 1; x < len(codes); x++ {
		k := dispatch.NextZero(codes[x:])
		if k < 0 {
			break
		}
		x += k
		b.add(q[x] - q[x-1])
	}
	return true
}

// vecRow2 is fusedRow2 in two vector phases.
func vecRow2(data []float32, q, up []int32, codes []uint16, r32 int32, ebx2r float64, b *encBlock) bool {
	if !quantRow(data, q, ebx2r) {
		return false
	}
	if d := q[0] - up[0]; d > -r32 && d < r32 {
		codes[0] = uint16(d + r32)
	} else {
		codes[0] = 0
		b.add(d)
	}
	dispatch.DiffCodes2(q, up, codes[1:], r32)
	for x := 1; x < len(codes); x++ {
		k := dispatch.NextZero(codes[x:])
		if k < 0 {
			break
		}
		x += k
		b.add(q[x] - q[x-1] - up[x] + up[x-1])
	}
	return true
}

// vecRow3 is fusedRow3 in two vector phases.
func vecRow3(data []float32, q, up, back, backUp []int32, codes []uint16, r32 int32, ebx2r float64, b *encBlock) bool {
	if !quantRow(data, q, ebx2r) {
		return false
	}
	if d := q[0] - up[0] - back[0] + backUp[0]; d > -r32 && d < r32 {
		codes[0] = uint16(d + r32)
	} else {
		codes[0] = 0
		b.add(d)
	}
	dispatch.DiffCodes3(q, up, back, backUp, codes[1:], r32)
	for x := 1; x < len(codes); x++ {
		k := dispatch.NextZero(codes[x:])
		if k < 0 {
			break
		}
		x += k
		b.add(q[x] - q[x-1] - up[x] + up[x-1] - back[x] + back[x-1] + backUp[x] - backUp[x-1])
	}
	return true
}

// row1/row2/row3 route a row to the vector or fused structure. The tier
// choice is uniform across a run (dispatch is fixed at init), so every
// block takes the same path.
func row1(data []float32, q []int32, codes []uint16, prev int32, r32 int32, ebx2r float64, b *encBlock) bool {
	if dispatch.VectorRows() && len(data) >= minVecRow {
		return vecRow1(data, q, codes, prev, r32, ebx2r, b)
	}
	return fusedRow1(data, q, codes, prev, r32, ebx2r, b)
}

func row2(data []float32, q, up []int32, codes []uint16, r32 int32, ebx2r float64, b *encBlock) bool {
	if dispatch.VectorRows() && len(data) >= minVecRow {
		return vecRow2(data, q, up, codes, r32, ebx2r, b)
	}
	return fusedRow2(data, q, up, codes, r32, ebx2r, b)
}

func row3(data []float32, q, up, back, backUp []int32, codes []uint16, r32 int32, ebx2r float64, b *encBlock) bool {
	if dispatch.VectorRows() && len(data) >= minVecRow {
		return vecRow3(data, q, up, back, backUp, codes, r32, ebx2r, b)
	}
	return fusedRow3(data, q, up, back, backUp, codes, r32, ebx2r, b)
}

// encodeBlock1D runs the fused kernel over a 1-D element range (a single
// row: no halo scratch and no interior row boundaries to poll overflow at).
func encodeBlock1D(data []float32, lattice []int32, codes []uint16, b *encBlock, r32 int32, ebx2r float64) bool {
	var prev int32
	if b.lo > 0 {
		// Halo: the element before the block, re-quantized privately.
		t := math.Round(float64(data[b.lo-1]) * ebx2r)
		if !(t <= maxLattice && t >= -maxLattice) {
			return false
		}
		prev = int32(t)
	}
	return row1(data[b.lo:b.hi], lattice[b.lo:b.hi], codes[b.lo:b.hi], prev, r32, ebx2r, b)
}

// encodeBlock2D runs the fused kernel over a range of 2-D rows.
func encodeBlock2D(data []float32, lattice []int32, codes []uint16, b *encBlock, nx int, r32 int32, ebx2r float64, pool *device.BufPool, overflow *atomic.Bool) bool {
	var halo *device.Slab[int32]
	up := []int32(nil)
	if b.lo > 0 {
		halo = pool.GetI32(nx, false)
		defer pool.PutI32(halo)
		if !quantRow(data[(b.lo-1)*nx:b.lo*nx], halo.Data, ebx2r) {
			return false
		}
		up = halo.Data
	}
	for y := b.lo; y < b.hi; y++ {
		if overflow.Load() {
			return false // another block overflowed; abandon at the row edge
		}
		base := y * nx
		row := lattice[base : base+nx]
		if y == 0 {
			if !row1(data[base:base+nx], row, codes[base:base+nx], 0, r32, ebx2r, b) {
				return false
			}
		} else if !row2(data[base:base+nx], row, up, codes[base:base+nx], r32, ebx2r, b) {
			return false
		}
		up = row
	}
	return true
}

// encodeBlock3D runs the fused kernel over a range of z-planes.
func encodeBlock3D(data []float32, lattice []int32, codes []uint16, b *encBlock, nx, ny int, r32 int32, ebx2r float64, pool *device.BufPool, overflow *atomic.Bool) bool {
	nxy := nx * ny
	var halo *device.Slab[int32]
	back := []int32(nil) // lattice of plane z-1
	if b.lo > 0 {
		halo = pool.GetI32(nxy, false)
		defer pool.PutI32(halo)
		if !quantRow(data[(b.lo-1)*nxy:b.lo*nxy], halo.Data, ebx2r) {
			return false
		}
		back = halo.Data
	}
	for z := b.lo; z < b.hi; z++ {
		pb := z * nxy
		cur := lattice[pb : pb+nxy]
		for y := 0; y < ny; y++ {
			if overflow.Load() {
				return false
			}
			base := pb + y*nx
			row := lattice[base : base+nx]
			dr := data[base : base+nx]
			cr := codes[base : base+nx]
			switch {
			case z == 0 && y == 0:
				if !row1(dr, row, cr, 0, r32, ebx2r, b) {
					return false
				}
			case z == 0:
				// First plane: the z-1 terms vanish, leaving the 2-D stencil.
				if !row2(dr, row, cur[(y-1)*nx:y*nx], cr, r32, ebx2r, b) {
					return false
				}
			case y == 0:
				// First row of a plane: the y-1 terms vanish, so the 2-D
				// stencil applies against the plane behind's first row.
				if !row2(dr, row, back[:nx], cr, r32, ebx2r, b) {
					return false
				}
			default:
				if !row3(dr, row, cur[(y-1)*nx:y*nx], back[y*nx:(y+1)*nx], back[(y-1)*nx:y*nx], cr, r32, ebx2r, b) {
					return false
				}
			}
		}
		back = cur
	}
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
