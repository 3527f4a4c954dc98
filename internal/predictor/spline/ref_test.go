package spline

import (
	"fmt"
	"math"

	"fzmod/internal/device"
	"fzmod/internal/grid"
)

// This file keeps the per-point engine the row sweeps replaced, as the
// oracle TestSweepMatchesReference compares them against: traverse walks
// every phase line by line and calls a visit closure per point with the
// prediction read at ±h·step and ±3h·step. Only the outlier compaction is
// rewritten (a sequential scan of the flags, which lists the same indices
// in the same order as the scan-based compaction it used).

func refEncode(p *device.Platform, place device.Place, data []float32, dims grid.Dims, eb float64, cfg Config) (*Quantized, error) {
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

	anchors := refCollectAnchors(dims, maxLevel, func(i int) float32 {
		v := data[i]
		work[i] = float64(v)
		codes[i] = uint16(radius)
		return v
	})

	choices := make([]byte, 3*maxLevel)
	orders := make([]byte, maxLevel)
	r32 := int32(radius)

	refTraverse(p, place, dims, maxLevel, work,
		func(level int, s, h int) byte {
			o := byte(0)
			if cfg.TuneOrder {
				o = refTuneOrder(data, work, dims, s, h)
			}
			orders[level-1] = o
			return o
		},
		func(level, dim int, ph refPhase) byte {
			c := refResolveMode(cfg.Mode, data, work, ph)
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

	outIdx := []uint32{}
	for i, f := range flags {
		if f != 0 {
			outIdx = append(outIdx, uint32(i))
		}
	}
	outVal := make([]float32, len(outIdx))
	for j, i := range outIdx {
		outVal[j] = data[i]
	}
	return &Quantized{
		Codes: codes, Anchors: anchors, OutIdx: outIdx, OutVal: outVal,
		Choices: choices, Orders: orders, Radius: radius, MaxLevel: maxLevel,
	}, nil
}

func refDecode(p *device.Platform, place device.Place, q *Quantized, dims grid.Dims, eb float64) ([]float32, error) {
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

	ai := 0
	wantAnchors := countAnchors(dims, q.MaxLevel)
	if len(q.Anchors) != wantAnchors {
		return nil, fmt.Errorf("spline: %d anchors, want %d", len(q.Anchors), wantAnchors)
	}
	refCollectAnchors(dims, q.MaxLevel, func(i int) float32 {
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
	refTraverse(p, place, dims, q.MaxLevel, work,
		func(level int, s, h int) byte { return q.Orders[level-1] },
		func(level, dim int, ph refPhase) byte { return q.Choices[3*(level-1)+dim] },
		func(i int, pred float64, level int) {
			c := q.Codes[i]
			if c == 0 {
				work[i] = outliers[uint32(i)]
				return
			}
			work[i] = pred + float64(float64(int32(c)-r32)*2*LevelEB(eb, level))
		})

	out := make([]float32, n)
	for i := range out {
		out[i] = float32(work[i])
	}
	return out, nil
}

type refPhase struct {
	dims    grid.Dims
	dim     int
	s, h    int
	step    int
	length  int
	lineIdx func(l int) int
	nLines  int
	starts  []int
}

func refTraverse(p *device.Platform, place device.Place, dims grid.Dims, maxLevel int, work []float64,
	orderOf func(level int, s, h int) byte,
	choose func(level, dim int, ph refPhase) byte, visit func(i int, pred float64, level int)) {

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
			ph := refBuildPhase(dims, dim, s, h, ext, steps, processed)
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
						visit(i, refPredict(work, i, c, ph.length, ph.step, h, cubic), lvl)
					}
				}
			})
		}
	}
}

func refTuneOrder(data []float32, work []float64, dims grid.Dims, s, h int) byte {
	rank := dims.Rank()
	if rank == 1 {
		return 0
	}
	ext := [3]int{dims.X, dims.Y, dims.Z}
	steps := [3]int{1, dims.X, dims.X * dims.Y}
	var sse [3]float64
	for d := 0; d < rank; d++ {
		ph := refBuildPhase(dims, d, s, h, ext, steps, [3]bool{})
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
				pr := refPredict(work, i, c, ph.length, ph.step, h, true)
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

func refBuildPhase(dims grid.Dims, dim, s, h int, ext, steps [3]int, processed [3]bool) refPhase {
	var starts []int
	for c := h; c < ext[dim]; c += s {
		starts = append(starts, c)
	}
	var od [2]int
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
			return h
		}
		return s
	}
	s0, s1 := stride(od[0]), stride(od[1])
	n0 := ceilDiv(ext[od[0]], s0)
	n1 := ceilDiv(ext[od[1]], s1)
	return refPhase{
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

func refPredict(work []float64, i, c, length, step, h int, cubic bool) float64 {
	a := work[i-h*step]
	if c+h >= length {
		return a
	}
	b := work[i+h*step]
	if cubic && c-3*h >= 0 && c+3*h < length {
		return (-work[i-3*h*step] + float64(9*a) + float64(9*b) - work[i+3*h*step]) / 16
	}
	return (a + b) / 2
}

func refResolveMode(m InterpMode, data []float32, work []float64, ph refPhase) byte {
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
			pc := refPredict(work, i, c, ph.length, ph.step, ph.h, true)
			pl := refPredict(work, i, c, ph.length, ph.step, ph.h, false)
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

func refCollectAnchors(dims grid.Dims, maxLevel int, get func(i int) float32) []float32 {
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
