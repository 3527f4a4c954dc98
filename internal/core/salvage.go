package core

import (
	"context"
	"fmt"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
)

// This file is the salvage read: where every normal decode path refuses a
// damaged artifact outright, DecompressSalvageCtx surveys it
// (fzio.SurveyArtifact), decodes the chunks that survived, and returns
// the full-geometry field with the damaged planes zero-filled plus a
// DamageMask saying exactly which planes are fabrication. The caller gets
// everything the artifact still proves correct, and an explicit record of
// what it does not.

// DamageMask records which planes of a salvage-read field are real. The
// field keeps the artifact's full recorded geometry; planes no intact
// chunk covers are zero-filled and flagged here.
type DamageMask struct {
	// Dims is the full field geometry the mask (and the salvaged field)
	// covers.
	Dims grid.Dims
	// Planes flags each plane of the slowest-varying dimension: true
	// means the plane was damaged or missing and its values are zeros,
	// false means an intact, integrity-checked chunk supplied it.
	Planes []bool
}

// DamagedPlanes returns how many planes are zero-filled.
func (m *DamageMask) DamagedPlanes() int {
	n := 0
	for _, d := range m.Planes {
		if d {
			n++
		}
	}
	return n
}

// Any reports whether the mask flags any damage at all.
func (m *DamageMask) Any() bool { return m.DamagedPlanes() > 0 }

// DecompressSalvageCtx decodes whatever survives of the (possibly
// damaged) artifact behind f: the field comes back at the artifact's full
// recorded geometry with every plane an intact chunk covers decoded
// normally and every damaged or missing plane zero-filled, as recorded by
// the returned DamageMask. Intact chunks pass the same integrity checks as
// every other read door (fzio.ContainerIndex.VerifyChunk: CRC32 plus, on
// version ≥ 2 artifacts, the recorded leaf hash) and decode through the
// same executor, so salvaged values are never silently wrong — the mask
// is the only place uncertainty lives. Errors only when the artifact is
// unsalvageable (unrecognizable, or no chunk survived), or with the
// context's error once gctx is canceled.
func DecompressSalvageCtx(gctx context.Context, p *device.Platform, f fzio.ChunkFetcher, opts DecompressOpts) ([]float32, *DamageMask, error) {
	s, err := fzio.SurveyArtifact(f)
	if err != nil {
		return nil, nil, err
	}
	dims := s.Header.Dims
	mask := &DamageMask{Dims: dims, Planes: make([]bool, dims.SlowExtent())}
	for z := range mask.Planes {
		mask.Planes[z] = true // cleared below for every plane an intact chunk covers
	}
	// The surveyed chunks tile the slow dimension in order; plan the intact
	// ones with their plane windows. A survey of a derailed stream can
	// overrun the geometry — chunks past the extent are undecodable (no
	// window exists for them) and stay masked.
	var chunks []chunkRead
	lo := 0
	for _, sc := range s.Chunks {
		if lo+sc.Planes > dims.SlowExtent() {
			break
		}
		if sc.State == fzio.ChunkIntact {
			chunks = append(chunks, chunkRead{chunk: sc.Index, lo: lo, planes: sc.Planes})
			clear(mask.Planes[lo : lo+sc.Planes])
		}
		lo += sc.Planes
	}
	if len(chunks) == 0 {
		return nil, nil, fmt.Errorf("core: nothing to salvage: no intact chunk in %s artifact", s.Flavor)
	}

	// The graph allocates the field zeroed, so every masked plane reads 0.
	rd := &chunkReads{
		// The survey accepted each intact payload under VerifyChunk.
		fetch:  func(i int) ([]byte, error) { return s.Chunks[i].Payload(), nil },
		chunks: chunks, dims: dims, sel: FullRegion(dims),
	}
	if _, err := readChunks(gctx, p, opts.Workers, rd); err != nil {
		return nil, nil, err
	}
	return rd.out, mask, nil
}
