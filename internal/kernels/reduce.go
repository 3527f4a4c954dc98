// Package kernels provides the GPU-style parallel primitives the compression
// modules are built from: grid reductions, exclusive prefix sums, gather /
// scatter, and bit packing. Each primitive follows the two-phase
// block-then-combine structure its CUDA counterpart uses (per-block partial
// results followed by a combine step), so module code written against this
// package has the same pass structure as the paper's kernels.
package kernels

import (
	"sync"

	"fzmod/internal/device"
	"fzmod/internal/kernels/dispatch"
)

// minMaxBlock is the per-block extent of the MinMaxF32 tree reduction.
const minMaxBlock = 1 << 16

// MinMaxF32 computes the minimum and maximum of data with a two-phase tree
// reduction at place: phase 1 reduces fixed-extent blocks into a pooled
// partials array — each block writes its own disjoint slots, so there is
// no merge lock for concurrent blocks to contend on and the result is
// deterministic regardless of scheduling — and phase 2 folds the partials.
// It is the extrema kernel behind relative-error-bound normalization
// (§3.2: "needing to find the data minimum and maximum to normalize the
// user provided error by the data range"). Per-range scans run through the
// dispatched SIMD kernel (dispatch.MinMaxF32), with the pure-Go lane scan
// as fallback.
func MinMaxF32(p *device.Platform, place device.Place, data []float32) (mn, mx float32) {
	if len(data) == 0 {
		return 0, 0
	}
	nBlocks := (len(data) + minMaxBlock - 1) / minMaxBlock
	if nBlocks == 1 {
		return dispatch.MinMaxF32(data)
	}
	slab := p.ScratchPool().GetF32(2*nBlocks, false)
	partials := slab.Data
	p.LaunchBlocks(place, nBlocks, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			end := (b + 1) * minMaxBlock
			if end > len(data) {
				end = len(data)
			}
			partials[2*b], partials[2*b+1] = dispatch.MinMaxF32(data[b*minMaxBlock : end])
		}
	})
	mn, mx = partials[0], partials[1]
	for b := 1; b < nBlocks; b++ {
		if partials[2*b] < mn {
			mn = partials[2*b]
		}
		if partials[2*b+1] > mx {
			mx = partials[2*b+1]
		}
	}
	p.ScratchPool().PutF32(slab)
	return mn, mx
}

// SumF64 accumulates data in float64 with per-block partials, matching the
// numerically safe reduction used for PSNR/MSE computation.
func SumF64(p *device.Platform, place device.Place, data []float64) float64 {
	var mu sync.Mutex
	var total float64
	p.LaunchGrid(place, len(data), func(lo, hi int) {
		var local float64
		for _, v := range data[lo:hi] {
			local += v
		}
		mu.Lock()
		total += local
		mu.Unlock()
	})
	return total
}
