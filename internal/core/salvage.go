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
// a normal read (CRC32 plus, on version ≥ 2 artifacts, the recorded leaf
// hash), so salvaged values are never silently wrong — the mask is the
// only place uncertainty lives. Errors only when the artifact is
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
		mask.Planes[z] = true // proven false per plane as intact chunks decode
	}
	out := make([]float32, dims.N())
	plane := dims.PlaneElems()

	// The surveyed chunks tile the slow dimension in order; collect the
	// intact ones with their plane windows. A survey of a derailed stream
	// can overrun the geometry — chunks past the extent are undecodable
	// (no window exists for them) and stay masked.
	type salvageNeed struct {
		lo int // first plane the chunk covers
		sc *fzio.SurveyChunk
	}
	var needs []salvageNeed
	lo := 0
	for i := range s.Chunks {
		sc := &s.Chunks[i]
		if lo+sc.Planes > dims.SlowExtent() {
			break
		}
		if sc.State == fzio.ChunkIntact {
			needs = append(needs, salvageNeed{lo: lo, sc: sc})
		}
		lo += sc.Planes
	}
	if len(needs) == 0 {
		return nil, nil, fmt.Errorf("core: nothing to salvage: no intact chunk in %s artifact", s.Flavor)
	}

	ctx := newCtx(gctx, p, device.Accel, opts.Workers, len(needs))
	jobs := make([]*decompressJob, len(needs))
	for i, nd := range needs {
		nd := nd
		want := dims.WithSlowExtent(nd.sc.Planes)
		o := nd.lo * plane
		jobs[i] = addDecompressTasks(ctx, fmt.Sprintf("s%d.", nd.sc.Index), nd.sc.Index, want, out[o:o+want.N()],
			func() ([]byte, error) { return nd.sc.Payload(), nil }, nil) // the survey already integrity-checked it
	}
	if _, err := finish(ctx, jobs); err != nil {
		return nil, nil, err
	}
	for _, nd := range needs {
		for z := nd.lo; z < nd.lo+nd.sc.Planes; z++ {
			mask.Planes[z] = false // an intact chunk decoded it
		}
	}
	return out, mask, nil
}
