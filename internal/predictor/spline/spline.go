// Package spline implements the multi-level interpolation predictor
// (G-Interp) used by FZMod-Quality, reproducing the cuSZ-i design the
// paper swaps in "for better data prediction" (§3.3). The same engine, with
// per-level auto-tuned interpolants, powers the SZ3 baseline.
//
// The field is refined level by level: anchors on the coarse 2^maxLevel
// lattice are stored verbatim, then each level halves the lattice spacing,
// predicting the new points by cubic (or linear) interpolation along one
// dimension at a time from already-reconstructed values. Residuals are
// quantized onto the 2·eb lattice with an outlier escape, so the bound is
// strict: every reconstructed value is within eb of its input (up to
// float32 output rounding, as documented on package lorenzo).
//
// Encoder and decoder share one row enumerator, which guarantees they
// visit points in the same phases with the same neighbor availability —
// the property interpolation-based compressors live or die by. A phase is
// swept as x-rows in memory order; each row hands whole runs of points with
// one border case (nearest, linear or cubic) to a tight predict + quantize
// (encode) or predict + reconstruct (decode) loop.
package spline

import (
	"fmt"
	"math"

	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/kernels/dispatch"
)

// DefaultMaxLevel gives anchors every 2^4 = 16 points per dimension.
const DefaultMaxLevel = 4

// MaxLevelLimit bounds MaxLevel. An anchor stride of 2^34 = grid.MaxElems
// is at least the longest extent any axis can have, so a coarser lattice
// holds nothing more; past 62 the stride itself overflows. Encode, Decode
// and stream parsers refuse larger values.
const MaxLevelLimit = 34

// DefaultRadius matches the Lorenzo module so all primary encoders share
// one code alphabet.
const DefaultRadius = 512

// InterpMode selects the interpolant for a level/dimension phase.
type InterpMode int

const (
	// Cubic uses the 4-point interpolant (-1, 9, 9, -1)/16 where all four
	// neighbors exist, falling back to linear then nearest at borders.
	Cubic InterpMode = iota
	// Linear always uses the 2-point average (nearest at borders).
	Linear
	// Auto samples each phase and picks whichever of cubic/linear has the
	// lower squared error — the SZ3-style per-level tuning.
	Auto
)

// Config controls the predictor.
type Config struct {
	MaxLevel int        // anchor lattice is 2^MaxLevel; ≤0 → DefaultMaxLevel; ≤ MaxLevelLimit
	Radius   int        // quantization code radius; ≤0 → DefaultRadius
	Mode     InterpMode // interpolant selection
	// TuneOrder enables per-level dimension-order auto-tuning (the
	// cuSZ-i "multi-component" tuning): at each level the dimension that
	// interpolates worst is processed first, so the best-predicting
	// dimension covers the phase with the most points. The chosen orders
	// are recorded in the stream.
	TuneOrder bool
}

// Quantized is the encoder output: codes share the Lorenzo escape
// convention (0 = outlier), anchors and outliers carry exact float32
// values, and Choices records the per-phase interpolant so the decoder
// replays auto-tuned decisions. OutVal lists the outlier values in the
// order of their escape codes. OutIdx is ignored: Encode leaves it nil and
// Decode locates outliers by their escape codes.
type Quantized struct {
	Codes    []uint16
	Anchors  []float32
	OutIdx   []uint32
	OutVal   []float32
	Choices  []byte // one per (level, dim) phase: 1 = cubic, 0 = linear
	Orders   []byte // one per level: index into the dimension permutations
	Radius   int
	MaxLevel int
}

// OutlierCount returns the number of escape-coded points.
func (q *Quantized) OutlierCount() int { return len(q.OutVal) }

// Encode predicts and quantizes data with absolute bound eb.
func Encode(p *device.Platform, place device.Place, data []float32, dims grid.Dims, eb float64, cfg Config) (*Quantized, error) {
	return EncodeInto(p, place, data, dims, eb, cfg, nil)
}

// EncodeInto is Encode quantizing into codes, dims.N() elements of any
// contents (the anchors and the sweep write every one), which the result
// aliases; nil codes allocates.
func EncodeInto(p *device.Platform, place device.Place, data []float32, dims grid.Dims, eb float64, cfg Config, codes []uint16) (*Quantized, error) {
	if !dims.Valid() || dims.N() != len(data) {
		return nil, fmt.Errorf("spline: dims %v do not match %d values", dims, len(data))
	}
	if codes == nil {
		codes = make([]uint16, len(data))
	} else if len(codes) != len(data) {
		return nil, fmt.Errorf("spline: codes buffer has %d elements, want %d", len(codes), len(data))
	}
	if eb <= 0 {
		return nil, fmt.Errorf("spline: error bound must be positive, got %g", eb)
	}
	maxLevel, radius := cfg.MaxLevel, cfg.Radius
	if maxLevel <= 0 {
		maxLevel = DefaultMaxLevel
	}
	if maxLevel > MaxLevelLimit {
		return nil, fmt.Errorf("spline: max level %d exceeds %d", maxLevel, MaxLevelLimit)
	}
	if radius <= 0 {
		radius = DefaultRadius
	}
	n := dims.N()
	work := make([]float64, n)

	// Anchors: exact values on the coarse lattice.
	anchors := make([]float32, 0, countAnchors(dims, maxLevel))
	forAnchors(dims, maxLevel, func(i int) {
		v := data[i]
		work[i] = float64(v)
		codes[i] = uint16(radius)
		anchors = append(anchors, v)
	})

	choices := make([]byte, 3*maxLevel)
	orders := make([]byte, maxLevel)
	e := &encoder{data: data, work: work, codes: codes, r32: int32(radius)}

	traverse(p, place, dims, maxLevel,
		func(level int, s, h int) byte {
			o := byte(0)
			if cfg.TuneOrder {
				o = tuneOrder(data, work, dims, s, h)
			}
			orders[level-1] = o
			return o
		},
		func(level, dim int, ph *phase) byte {
			c := resolveMode(cfg.Mode, data, work, ph)
			choices[3*(level-1)+dim] = c
			return c
		},
		func(level int) rowKernel {
			e.ebL = LevelEB(eb, level)
			return e
		})

	return &Quantized{
		Codes: codes, Anchors: anchors, OutVal: gatherOutliers(codes, data),
		Choices: choices, Orders: orders, Radius: radius, MaxLevel: maxLevel,
	}, nil
}

// gatherOutliers lists the exact values of the escape-coded points (code
// 0) in index order. Escapes are rare, so both passes — one to size the
// result, one to fill it — hop zero to zero with the dispatched NextZero
// kernel instead of testing every code.
func gatherOutliers(codes []uint16, data []float32) []float32 {
	m := 0
	for base := 0; ; m++ {
		k := dispatch.NextZero(codes[base:])
		if k < 0 {
			break
		}
		base += k + 1
	}
	val := make([]float32, m)
	base := 0
	for j := range val {
		base += dispatch.NextZero(codes[base:])
		val[j] = data[base]
		base++
	}
	return val
}

// Decode reconstructs the field from a Quantized stream.
func Decode(p *device.Platform, place device.Place, q *Quantized, dims grid.Dims, eb float64) ([]float32, error) {
	return DecodeInto(p, place, q, dims, eb, nil)
}

// DecodeInto is Decode writing every one of dst's dims.N() values and
// returning dst; nil dst allocates. Outlier positions come from the escape
// codes (q.OutIdx is not read); more or fewer escapes than q.OutVal holds
// is an error.
func DecodeInto(p *device.Platform, place device.Place, q *Quantized, dims grid.Dims, eb float64, dst []float32) ([]float32, error) {
	n := dims.N()
	if len(q.Codes) != n {
		return nil, fmt.Errorf("spline: %d codes for dims %v (%d values)", len(q.Codes), dims, n)
	}
	if q.Radius <= 0 || q.MaxLevel <= 0 {
		return nil, fmt.Errorf("spline: invalid radius %d / maxLevel %d", q.Radius, q.MaxLevel)
	}
	if q.MaxLevel > MaxLevelLimit {
		return nil, fmt.Errorf("spline: max level %d exceeds %d", q.MaxLevel, MaxLevelLimit)
	}
	if len(q.Choices) < 3*q.MaxLevel {
		return nil, fmt.Errorf("spline: %d interpolant choices, want %d", len(q.Choices), 3*q.MaxLevel)
	}
	if len(q.Orders) < q.MaxLevel {
		return nil, fmt.Errorf("spline: %d dimension orders, want %d", len(q.Orders), q.MaxLevel)
	}
	for _, o := range q.Orders {
		if o >= 6 {
			return nil, fmt.Errorf("spline: invalid dimension order %d", o)
		}
	}
	if want := countAnchors(dims, q.MaxLevel); len(q.Anchors) != want {
		return nil, fmt.Errorf("spline: %d anchors, want %d", len(q.Anchors), want)
	}
	if dst == nil {
		dst = make([]float32, n)
	} else if len(dst) != n {
		return nil, fmt.Errorf("spline: output buffer has %d elements, want %d", len(dst), n)
	}
	work := make([]float64, n)

	// Anchors first, in the encoder's deterministic order, then the
	// outliers: the sweep skips escape codes, so nothing overwrites them.
	ai := 0
	forAnchors(dims, q.MaxLevel, func(i int) {
		work[i] = float64(q.Anchors[ai])
		ai++
	})
	vals, base := q.OutVal, 0
	for {
		k := dispatch.NextZero(q.Codes[base:])
		if k < 0 {
			break
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("spline: more outlier escapes than the %d values", len(q.OutVal))
		}
		base += k
		work[base] = float64(vals[0])
		vals = vals[1:]
		base++
	}
	if len(vals) != 0 {
		return nil, fmt.Errorf("spline: %d outlier values but only %d escapes", len(q.OutVal), len(q.OutVal)-len(vals))
	}

	d := &decoder{work: work, codes: q.Codes, r32: int32(q.Radius)}
	traverse(p, place, dims, q.MaxLevel,
		func(level int, s, h int) byte { return q.Orders[level-1] },
		func(level, dim int, ph *phase) byte { return q.Choices[3*(level-1)+dim] },
		func(level int) rowKernel {
			d.ebL = LevelEB(eb, level)
			return d
		})

	p.LaunchGrid(place, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = float32(work[i])
		}
	})
	return dst, nil
}

// LevelEB returns the tightened error bound used at a refinement level:
// coarse-level reconstructions feed every finer prediction, so their errors
// are held 2× (level 2) or 4× (level ≥ 3) tighter than the user bound, the
// multi-level error control cuSZ-i applies. The finest level (1), which
// codes half of all points per dimension, uses the full bound.
func LevelEB(eb float64, level int) float64 {
	switch {
	case level <= 1:
		return eb
	case level == 2:
		return eb / 2
	default:
		return eb / 4
	}
}

// perms enumerates the dimension processing orders a level may use; the
// byte stored per level indexes this table. Dimensions ≥ rank are skipped
// at traversal time, so the table covers every rank.
var perms = [6][3]int{
	{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
}

// span is the coordinates start, start+stride, … (n of them) along one axis.
type span struct{ start, stride, n int }

// phase is one (level, dim) refinement step: the points whose coordinate
// along dim is an odd multiple of h, those along dimensions already
// processed this level multiples of h, and the rest multiples of s = 2h.
// Every point is predicted from neighbours at ±h (and ±3h) along dim, which
// lie on the coarser lattice, so a phase's points are independent.
type phase struct {
	ext  [3]int  // field extents x, y, z
	step [3]int  // linear-index stride of one unit along each axis
	dim  int     // the interpolation axis
	s, h int     // lattice spacing before / after this level
	ax   [3]span // coordinates visited along x, y, z
}

func newPhase(dims grid.Dims, dim, s, h int, processed [3]bool) phase {
	ph := phase{
		ext:  [3]int{dims.X, dims.Y, dims.Z},
		step: [3]int{1, dims.X, dims.X * dims.Y},
		dim:  dim, s: s, h: h,
	}
	for a, e := range ph.ext {
		switch {
		case a == dim:
			ph.ax[a] = span{h, s, ceilDiv(max(e-h, 0), s)}
		case processed[a]:
			ph.ax[a] = span{0, h, ceilDiv(e, h)}
		default:
			ph.ax[a] = span{0, s, ceilDiv(e, s)}
		}
	}
	return ph
}

func (ph *phase) empty() bool { return ph.ax[0].n*ph.ax[1].n*ph.ax[2].n == 0 }

// rows is the number of x-rows the phase sweeps.
func (ph *phase) rows() int { return ph.ax[1].n * ph.ax[2].n }

// rowKernel predicts and codes (encoder) or reconstructs (decoder) n points
// i0, i0+xs, … of one row, all with the same border case: nearest reads the
// neighbour at i-off, linear those at i±off, cubic those at i±off and
// i±3·off. Each method is one tight loop.
type rowKernel interface {
	nearest(i0, n, xs, off int)
	linear(i0, n, xs, off int)
	cubic(i0, n, xs, off int)
}

// sweepRow runs row r of the phase through k. In an x phase the
// interpolation neighbours share the row, which splits into a linear head,
// a cubic interior and a linear/nearest tail; in a y or z phase the whole
// row has one border case and reads the source rows at c±h and c±3h.
func (ph *phase) sweepRow(r int, cubic bool, k rowKernel) {
	y := ph.ax[1].start + (r%ph.ax[1].n)*ph.ax[1].stride
	z := ph.ax[2].start + (r/ph.ax[1].n)*ph.ax[2].stride
	base := y*ph.step[1] + z*ph.step[2]
	h, s, xn := ph.h, ph.s, ph.ax[0].n
	if ph.dim == 0 {
		L := ph.ext[0]
		nLin := ceilDiv(max(L-2*h, 0), s) // points with c+h < L
		nCub := ceilDiv(max(L-4*h, 0), s) // points with c+3h < L
		i0, lo := base+h, 0
		if cubic && nCub > 1 {
			// The first point (c = h) has no c-3h neighbour.
			k.linear(i0, 1, s, h)
			k.cubic(i0+s, nCub-1, s, h)
			lo = nCub
		}
		k.linear(i0+lo*s, nLin-lo, s, h)
		k.nearest(i0+nLin*s, xn-nLin, s, h)
		return
	}
	c := y
	if ph.dim == 2 {
		c = z
	}
	length, off, xs := ph.ext[ph.dim], h*ph.step[ph.dim], ph.ax[0].stride
	switch {
	case c+h >= length:
		k.nearest(base, xn, xs, off)
	case cubic && c-3*h >= 0 && c+3*h < length:
		k.cubic(base, xn, xs, off)
	default:
		k.linear(base, xn, xs, off)
	}
}

// traverse enumerates the multi-level refinement. For each level from
// coarse to fine and each dimension in the level's order, it calls choose
// once to fix the interpolant, then sweeps the phase's rows in parallel
// through the level's row kernel, which writes every reconstructed value
// into the work field so later phases see it.
func traverse(p *device.Platform, place device.Place, dims grid.Dims, maxLevel int,
	orderOf func(level int, s, h int) byte,
	choose func(level, dim int, ph *phase) byte, kernelOf func(level int) rowKernel) {

	// One sweep state and one launch closure serve every phase.
	sw := &sweep{}
	run := sw.run
	rank := dims.Rank()
	for level := maxLevel; level >= 1; level-- {
		s := 1 << uint(level)
		h := s >> 1
		order := perms[orderOf(level, s, h)%6]
		var processed [3]bool
		for _, dim := range order {
			if dim >= rank {
				continue
			}
			sw.ph = newPhase(dims, dim, s, h, processed)
			processed[dim] = true
			if sw.ph.empty() {
				continue
			}
			sw.cubic = choose(level, dim, &sw.ph) != 0
			sw.k = kernelOf(level)
			p.LaunchGrid(place, sw.ph.rows(), run)
		}
	}
}

// sweep is the phase a launch runs: its rows, interpolant and row kernel.
type sweep struct {
	ph    phase
	cubic bool
	k     rowKernel
}

func (sw *sweep) run(lo, hi int) {
	for r := lo; r < hi; r++ {
		sw.ph.sweepRow(r, sw.cubic, sw.k)
	}
}

// encoder is the encode row kernel: predict, quantize onto the 2·ebL
// lattice, and store the reconstruction the decoder will see (or the exact
// value, behind an escape code 0, when the code leaves the radius).
type encoder struct {
	data  []float32
	work  []float64
	codes []uint16
	r32   int32
	ebL   float64
}

func (e *encoder) nearest(i0, n, xs, off int) {
	data, w, codes, r32, ebL := e.data, e.work, e.codes, e.r32, e.ebL
	den := 2 * ebL
	for i := i0; n > 0; i, n = i+xs, n-1 {
		pred := w[i-off]
		v := float64(data[i])
		code := int32(math.Round((v - pred) / den))
		if code > -r32 && code < r32 {
			codes[i] = uint16(code + r32)
			w[i] = pred + float64(float64(code)*2*ebL)
		} else {
			codes[i] = 0
			w[i] = v
		}
	}
}

func (e *encoder) linear(i0, n, xs, off int) {
	data, w, codes, r32, ebL := e.data, e.work, e.codes, e.r32, e.ebL
	den := 2 * ebL
	for i := i0; n > 0; i, n = i+xs, n-1 {
		pred := (w[i-off] + w[i+off]) / 2
		v := float64(data[i])
		code := int32(math.Round((v - pred) / den))
		if code > -r32 && code < r32 {
			codes[i] = uint16(code + r32)
			w[i] = pred + float64(float64(code)*2*ebL)
		} else {
			codes[i] = 0
			w[i] = v
		}
	}
}

func (e *encoder) cubic(i0, n, xs, off int) {
	data, w, codes, r32, ebL := e.data, e.work, e.codes, e.r32, e.ebL
	den, off3 := 2*ebL, 3*off
	for i := i0; n > 0; i, n = i+xs, n-1 {
		a, b := w[i-off], w[i+off]
		pred := (-w[i-off3] + float64(9*a) + float64(9*b) - w[i+off3]) / 16
		v := float64(data[i])
		code := int32(math.Round((v - pred) / den))
		if code > -r32 && code < r32 {
			codes[i] = uint16(code + r32)
			w[i] = pred + float64(float64(code)*2*ebL)
		} else {
			codes[i] = 0
			w[i] = v
		}
	}
}

// decoder is the decode row kernel: predict and add the dequantized
// residual. Escape codes are skipped; their exact values are placed before
// the sweep.
type decoder struct {
	work  []float64
	codes []uint16
	r32   int32
	ebL   float64
}

func (d *decoder) nearest(i0, n, xs, off int) {
	w, codes, r32, ebL := d.work, d.codes, d.r32, d.ebL
	for i := i0; n > 0; i, n = i+xs, n-1 {
		if c := codes[i]; c != 0 {
			w[i] = w[i-off] + float64(float64(int32(c)-r32)*2*ebL)
		}
	}
}

func (d *decoder) linear(i0, n, xs, off int) {
	w, codes, r32, ebL := d.work, d.codes, d.r32, d.ebL
	for i := i0; n > 0; i, n = i+xs, n-1 {
		if c := codes[i]; c != 0 {
			pred := (w[i-off] + w[i+off]) / 2
			w[i] = pred + float64(float64(int32(c)-r32)*2*ebL)
		}
	}
}

func (d *decoder) cubic(i0, n, xs, off int) {
	w, codes, r32, ebL := d.work, d.codes, d.r32, d.ebL
	off3 := 3 * off
	for i := i0; n > 0; i, n = i+xs, n-1 {
		if c := codes[i]; c != 0 {
			a, b := w[i-off], w[i+off]
			pred := (-w[i-off3] + float64(9*a) + float64(9*b) - w[i+off3]) / 16
			w[i] = pred + float64(float64(int32(c)-r32)*2*ebL)
		}
	}
}

// lineGrid lays a phase out for the samplers: n lines along the phase
// dimension, enumerated with the lower of the two other axes varying
// fastest.
type lineGrid struct{ n, n0, st0, st1 int }

func (ph *phase) lines() lineGrid {
	var od [2]int // other dims
	switch ph.dim {
	case 0:
		od = [2]int{1, 2}
	case 1:
		od = [2]int{0, 2}
	default:
		od = [2]int{0, 1}
	}
	a0, a1 := ph.ax[od[0]], ph.ax[od[1]]
	return lineGrid{a0.n * a1.n, a0.n, a0.stride * ph.step[od[0]], a1.stride * ph.step[od[1]]}
}

// base returns the linear index where line l starts.
func (g lineGrid) base(l int) int { return (l%g.n0)*g.st0 + (l/g.n0)*g.st1 }

// tuneOrder samples the interpolation error along each dimension at the
// given stride and returns the permutation index that processes dimensions
// from worst to best, so the most accurate dimension predicts the
// most-populated final phase.
func tuneOrder(data []float32, work []float64, dims grid.Dims, s, h int) byte {
	rank := dims.Rank()
	if rank == 1 {
		return 0
	}
	var sse [3]float64
	for d := 0; d < rank; d++ {
		// Probe the phase dimension d would have if processed first.
		ph := newPhase(dims, d, s, h, [3]bool{})
		if ph.empty() {
			sse[d] = 0
			continue
		}
		g := ph.lines()
		along, step, length := ph.ax[d], ph.step[d], ph.ext[d]
		strideL := g.n/64 + 1
		samples := 0
		for l := 0; l < g.n && samples < 512; l += strideL {
			base := g.base(l)
			for j, c := 0, along.start; j < along.n; j, c = j+1, c+along.stride {
				i := base + c*step
				pr := predict(work, i, c, length, step, h, true)
				dd := float64(data[i]) - pr
				sse[d] += float64(dd * dd)
				samples++
				if samples >= 512 {
					break
				}
			}
		}
		if samples > 0 {
			sse[d] /= float64(samples)
		}
	}
	// Find the permutation ordering dims by descending error (worst
	// first). Stable for ties via the permutation table order.
	best := 0
	for pi, pm := range perms {
		ok := true
		prev := math.Inf(1)
		for _, d := range pm {
			if d >= rank {
				continue
			}
			if sse[d] > prev {
				ok = false
				break
			}
			prev = sse[d]
		}
		if ok {
			best = pi
			break
		}
	}
	return byte(best)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// predict interpolates the value at coordinate c along a line of the given
// length, reading reconstructed neighbors at ±h and ±3h. The samplers use
// it; the sweeps inline the same expressions per border case.
func predict(work []float64, i, c, length, step, h int, cubic bool) float64 {
	a := work[i-h*step] // c-h ≥ 0 by construction
	if c+h >= length {
		return a
	}
	b := work[i+h*step]
	if cubic && c-3*h >= 0 && c+3*h < length {
		return (-work[i-3*h*step] + float64(9*a) + float64(9*b) - work[i+3*h*step]) / 16
	}
	return (a + b) / 2
}

// resolveMode implements Auto by sampling the phase and comparing summed
// squared error of cubic vs linear predictions against the true data.
func resolveMode(m InterpMode, data []float32, work []float64, ph *phase) byte {
	switch m {
	case Cubic:
		return 1
	case Linear:
		return 0
	}
	const maxSamples = 1024
	g := ph.lines()
	along, step, length := ph.ax[ph.dim], ph.step[ph.dim], ph.ext[ph.dim]
	if g.n*along.n == 0 {
		return 1
	}
	strideL := g.n/64 + 1
	var sseCubic, sseLinear float64
	samples := 0
	for l := 0; l < g.n && samples < maxSamples; l += strideL {
		base := g.base(l)
		for j, c := 0, along.start; j < along.n; j, c = j+1, c+along.stride {
			i := base + c*step
			pc := predict(work, i, c, length, step, ph.h, true)
			pl := predict(work, i, c, length, step, ph.h, false)
			d := float64(data[i])
			sseCubic += float64((d - pc) * (d - pc))
			sseLinear += float64((d - pl) * (d - pl))
			samples++
			if samples >= maxSamples {
				break
			}
		}
	}
	if sseLinear < sseCubic {
		return 0
	}
	return 1
}

// forAnchors calls fn with the linear index of each point of the anchor
// lattice, in z, y, x order.
func forAnchors(dims grid.Dims, maxLevel int, fn func(i int)) {
	s := 1 << uint(maxLevel)
	for z := 0; z < dims.Z; z += s {
		for y := 0; y < dims.Y; y += s {
			for x := 0; x < dims.X; x += s {
				fn(dims.Idx(x, y, z))
			}
		}
	}
}

func countAnchors(dims grid.Dims, maxLevel int) int {
	s := 1 << uint(maxLevel)
	return ceilDiv(dims.X, s) * ceilDiv(dims.Y, s) * ceilDiv(dims.Z, s)
}
