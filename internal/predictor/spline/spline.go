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
// Encoder and decoder share one traversal routine, which guarantees they
// enumerate points in the same phases with the same neighbor availability —
// the property interpolation-based compressors live or die by.
package spline

import (
	"fmt"
	"math"

	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/kernels"
)

// DefaultMaxLevel gives anchors every 2^4 = 16 points per dimension.
const DefaultMaxLevel = 4

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
	MaxLevel int        // anchor lattice is 2^MaxLevel; ≤0 → DefaultMaxLevel
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
// replays auto-tuned decisions.
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
func (q *Quantized) OutlierCount() int { return len(q.OutIdx) }

// Encode predicts and quantizes data with absolute bound eb.
func Encode(p *device.Platform, place device.Place, data []float32, dims grid.Dims, eb float64, cfg Config) (*Quantized, error) {
	if !dims.Valid() || dims.N() != len(data) {
		return nil, fmt.Errorf("spline: dims %v do not match %d values", dims, len(data))
	}
	if eb <= 0 {
		return nil, fmt.Errorf("spline: error bound must be positive, got %g", eb)
	}
	maxLevel, radius := cfg.MaxLevel, cfg.Radius
	if maxLevel <= 0 {
		maxLevel = DefaultMaxLevel
	}
	if radius <= 0 {
		radius = DefaultRadius
	}
	n := dims.N()
	work := make([]float64, n)
	codes := make([]uint16, n)
	flags := make([]uint32, n)

	// Anchors: exact values on the coarse lattice.
	anchors := collectAnchors(dims, maxLevel, func(i int) float32 {
		v := data[i]
		work[i] = float64(v)
		codes[i] = uint16(radius)
		return v
	})

	choices := make([]byte, 3*maxLevel)
	orders := make([]byte, maxLevel)
	r32 := int32(radius)

	traverse(p, place, dims, maxLevel, work,
		func(level int, s, h int) byte {
			o := byte(0)
			if cfg.TuneOrder {
				o = tuneOrder(data, work, dims, s, h)
			}
			orders[level-1] = o
			return o
		},
		func(level, dim int, ph phase) byte {
			c := resolveMode(cfg.Mode, data, work, dims, ph)
			choices[3*(level-1)+dim] = c
			return c
		},
		func(i int, pred float64, level int) {
			ebL := LevelEB(eb, level)
			err := float64(data[i]) - pred
			code := int32(math.Round(err / (2 * ebL)))
			if code > -r32 && code < r32 {
				codes[i] = uint16(code + r32)
				work[i] = pred + float64(float64(code)*2*ebL)
			} else {
				flags[i] = 1 // codes[i] stays 0: outlier escape
				work[i] = float64(data[i])
			}
		})

	outIdx := kernels.CompactU32(p, place, flags)
	outVal := make([]float32, len(outIdx))
	p.LaunchGrid(place, len(outIdx), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			outVal[j] = data[outIdx[j]]
		}
	})
	return &Quantized{
		Codes: codes, Anchors: anchors, OutIdx: outIdx, OutVal: outVal,
		Choices: choices, Orders: orders, Radius: radius, MaxLevel: maxLevel,
	}, nil
}

// Decode reconstructs the field from a Quantized stream.
func Decode(p *device.Platform, place device.Place, q *Quantized, dims grid.Dims, eb float64) ([]float32, error) {
	n := dims.N()
	if len(q.Codes) != n {
		return nil, fmt.Errorf("spline: %d codes for dims %v (%d values)", len(q.Codes), dims, n)
	}
	if q.Radius <= 0 || q.MaxLevel <= 0 {
		return nil, fmt.Errorf("spline: invalid radius %d / maxLevel %d", q.Radius, q.MaxLevel)
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
	if len(q.OutIdx) != len(q.OutVal) {
		return nil, fmt.Errorf("spline: outlier index/value length mismatch")
	}
	work := make([]float64, n)

	// Anchors first, in the encoder's deterministic order.
	ai := 0
	wantAnchors := countAnchors(dims, q.MaxLevel)
	if len(q.Anchors) != wantAnchors {
		return nil, fmt.Errorf("spline: %d anchors, want %d", len(q.Anchors), wantAnchors)
	}
	collectAnchors(dims, q.MaxLevel, func(i int) float32 {
		work[i] = float64(q.Anchors[ai])
		ai++
		return 0
	})

	outliers := make(map[uint32]float64, len(q.OutIdx))
	for j, idx := range q.OutIdx {
		if int(idx) >= n {
			return nil, fmt.Errorf("spline: outlier index %d out of range %d", idx, n)
		}
		outliers[idx] = float64(q.OutVal[j])
	}

	r32 := int32(q.Radius)
	traverse(p, place, dims, q.MaxLevel, work,
		func(level int, s, h int) byte { return q.Orders[level-1] },
		func(level, dim int, ph phase) byte { return q.Choices[3*(level-1)+dim] },
		func(i int, pred float64, level int) {
			c := q.Codes[i]
			if c == 0 {
				work[i] = outliers[uint32(i)]
				return
			}
			work[i] = pred + float64(float64(int32(c)-r32)*2*LevelEB(eb, level))
		})

	out := make([]float32, n)
	p.LaunchGrid(place, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float32(work[i])
		}
	})
	return out, nil
}

// phase describes one (level, dim) traversal step for the tuner.
type phase struct {
	dims    grid.Dims
	dim     int
	s, h    int
	step    int             // linear-index stride of one unit along dim
	length  int             // extent along dim
	lineIdx func(l int) int // base linear index of line l
	nLines  int
	starts  []int // coordinates along dim visited in this phase
}

// traverse enumerates the multi-level refinement. For each level from
// coarse to fine and each dimension x→y→z, it calls choose once to fix the
// interpolant, then visits every point of the phase in parallel across
// lines, passing the prediction computed from work. visit must write the
// reconstructed value into work[i] so later phases see it.
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

func traverse(p *device.Platform, place device.Place, dims grid.Dims, maxLevel int, work []float64,
	orderOf func(level int, s, h int) byte,
	choose func(level, dim int, ph phase) byte, visit func(i int, pred float64, level int)) {

	rank := dims.Rank()
	ext := [3]int{dims.X, dims.Y, dims.Z}
	steps := [3]int{1, dims.X, dims.X * dims.Y}

	for level := maxLevel; level >= 1; level-- {
		s := 1 << uint(level)
		h := s >> 1
		order := perms[orderOf(level, s, h)%6]
		var processed [3]bool
		for _, dim := range order {
			if dim >= rank {
				continue
			}
			ph := buildPhase(dims, dim, s, h, ext, steps, processed)
			processed[dim] = true
			if len(ph.starts) == 0 || ph.nLines == 0 {
				continue
			}
			mode := choose(level, dim, ph)
			cubic := mode != 0
			lvl := level
			p.LaunchGrid(place, ph.nLines, func(lo, hi int) {
				for l := lo; l < hi; l++ {
					base := ph.lineIdx(l)
					for _, c := range ph.starts {
						i := base + c*ph.step
						visit(i, predict(work, i, c, ph.length, ph.step, h, cubic), lvl)
					}
				}
			})
		}
	}
}

// tuneOrder samples the interpolation error along each dimension at the
// given stride and returns the permutation index that processes dimensions
// from worst to best, so the most accurate dimension predicts the
// most-populated final phase.
func tuneOrder(data []float32, work []float64, dims grid.Dims, s, h int) byte {
	rank := dims.Rank()
	if rank == 1 {
		return 0
	}
	ext := [3]int{dims.X, dims.Y, dims.Z}
	steps := [3]int{1, dims.X, dims.X * dims.Y}
	var sse [3]float64
	for d := 0; d < rank; d++ {
		// Probe the phase dimension d would have if processed first.
		ph := buildPhase(dims, d, s, h, ext, steps, [3]bool{})
		if len(ph.starts) == 0 || ph.nLines == 0 {
			sse[d] = 0
			continue
		}
		strideL := ph.nLines/64 + 1
		samples := 0
		for l := 0; l < ph.nLines && samples < 512; l += strideL {
			base := ph.lineIdx(l)
			for _, c := range ph.starts {
				i := base + c*ph.step
				pr := predict(work, i, c, ph.length, ph.step, h, true)
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

// buildPhase computes the point pattern for (dim, stride): the coordinate
// along dim runs over odd multiples of h; dims already processed this level
// run over multiples of h, unprocessed dims over multiples of s.
func buildPhase(dims grid.Dims, dim, s, h int, ext, steps [3]int, processed [3]bool) phase {
	var starts []int
	for c := h; c < ext[dim]; c += s {
		starts = append(starts, c)
	}
	// The two other dimensions (in x,y,z order) form the line grid.
	var od [2]int // other dims
	switch dim {
	case 0:
		od = [2]int{1, 2}
	case 1:
		od = [2]int{0, 2}
	default:
		od = [2]int{0, 1}
	}
	stride := func(other int) int {
		if processed[other] {
			return h // already processed this level
		}
		return s // still on the coarse lattice
	}
	s0, s1 := stride(od[0]), stride(od[1])
	n0 := ceilDiv(ext[od[0]], s0)
	n1 := ceilDiv(ext[od[1]], s1)
	return phase{
		dims: dims, dim: dim, s: s, h: h,
		step:   steps[dim],
		length: ext[dim],
		nLines: n0 * n1,
		starts: starts,
		lineIdx: func(l int) int {
			c0 := (l % n0) * s0
			c1 := (l / n0) * s1
			return c0*steps[od[0]] + c1*steps[od[1]]
		},
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// predict interpolates the value at coordinate c along a line of the given
// length, reading reconstructed neighbors at ±h and ±3h.
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
func resolveMode(m InterpMode, data []float32, work []float64, dims grid.Dims, ph phase) byte {
	switch m {
	case Cubic:
		return 1
	case Linear:
		return 0
	}
	const maxSamples = 1024
	total := ph.nLines * len(ph.starts)
	if total == 0 {
		return 1
	}
	strideL := ph.nLines/64 + 1
	var sseCubic, sseLinear float64
	samples := 0
	for l := 0; l < ph.nLines && samples < maxSamples; l += strideL {
		base := ph.lineIdx(l)
		for _, c := range ph.starts {
			i := base + c*ph.step
			pc := predict(work, i, c, ph.length, ph.step, ph.h, true)
			pl := predict(work, i, c, ph.length, ph.step, ph.h, false)
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

// collectAnchors walks the anchor lattice in z, y, x order, calling get for
// each anchor index, and returns the gathered values.
func collectAnchors(dims grid.Dims, maxLevel int, get func(i int) float32) []float32 {
	s := 1 << uint(maxLevel)
	out := make([]float32, 0, countAnchors(dims, maxLevel))
	for z := 0; z < dims.Z; z += s {
		for y := 0; y < dims.Y; y += s {
			for x := 0; x < dims.X; x += s {
				out = append(out, get(dims.Idx(x, y, z)))
			}
		}
	}
	return out
}

func countAnchors(dims grid.Dims, maxLevel int) int {
	s := 1 << uint(maxLevel)
	return ceilDiv(dims.X, s) * ceilDiv(dims.Y, s) * ceilDiv(dims.Z, s)
}
