package kernels

import (
	"fzmod/internal/device"
)

// ExclusiveScan computes the exclusive prefix sum of src into a new slice
// and returns it together with the total. The implementation is the classic
// three-phase GPU scan: per-block sequential scan producing block sums, a
// scan over the block sums, then a per-block offset add. The cuSZp2 and
// FZ-GPU baselines place their variable-size blocks with it.
func ExclusiveScan(p *device.Platform, place device.Place, src []uint32) (out []uint32, total uint32) {
	out = make([]uint32, len(src))
	total = ExclusiveScanInto(p, place, src, out)
	return out, total
}

// ExclusiveScanInto is ExclusiveScan writing into caller-provided storage
// (len(out) must equal len(src)), so hot paths can scan into pooled slabs.
func ExclusiveScanInto(p *device.Platform, place device.Place, src, out []uint32) (total uint32) {
	n := len(src)
	if n == 0 {
		return 0
	}
	const block = 4096
	nBlocks := (n + block - 1) / block
	sums := p.ScratchPool().GetU32(nBlocks, false)
	blockSums := sums.Data

	// Phase 1: per-block exclusive scan, blocks fanned over the workers.
	p.LaunchBlocks(place, nBlocks, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*block, (b+1)*block
			if hi > n {
				hi = n
			}
			var acc uint32
			for i := lo; i < hi; i++ {
				out[i] = acc
				acc += src[i]
			}
			blockSums[b] = acc
		}
	})

	// Phase 2: sequential scan of block sums (nBlocks is small).
	var acc uint32
	for b := 0; b < nBlocks; b++ {
		s := blockSums[b]
		blockSums[b] = acc
		acc += s
	}
	total = acc

	// Phase 3: add block offsets — one unit-stride constant-offset loop per
	// block instead of a per-element division to locate the block.
	p.LaunchBlocks(place, nBlocks, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*block, (b+1)*block
			if hi > n {
				hi = n
			}
			s := blockSums[b]
			for i := lo; i < hi; i++ {
				out[i] += s
			}
		}
	})
	p.ScratchPool().PutU32(sums)
	return total
}
