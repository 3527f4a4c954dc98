package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

// A truncated stream upload: the salvage read recovers every complete
// frame's planes bit-identically and zero-masks the tail.
func TestDecompressSalvageTruncatedStream(t *testing.T) {
	dims := grid.D3(16, 12, 20)
	data := sdrbench.GenNYX(dims, 5)
	var buf bytes.Buffer
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	absEB, _, err := preprocess.Resolve(tp, device.Host, data, preprocess.RelBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDefault().CompressStreamCtx(context.Background(), tp, bytes.NewReader(raw), dims,
		preprocess.AbsBound(absEB), &buf, StreamOpts{ChunkElems: dims.PlaneElems() * 4, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	reassembled, err := fzio.ReassembleChunked(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	full, _, _, err := DecompressReportWithOpts(tp, reassembled, Opts{})
	if err != nil {
		t.Fatal(err)
	}

	// Cut the stream mid-way: keep roughly the first 60% of the bytes.
	cut := blob[:len(blob)*6/10]
	survey, err := fzio.SurveyArtifact(fzio.NewBytesFetcher(cut))
	if err != nil {
		t.Fatalf("SurveyArtifact: %v", err)
	}
	if !survey.Truncated || survey.Intact() == 0 {
		t.Fatalf("survey = truncated=%v intact=%d; the cut should leave complete frames",
			survey.Truncated, survey.Intact())
	}

	out, mask, err := DecompressSalvageCtx(context.Background(), tp, fzio.NewBytesFetcher(cut), DecompressOpts{Workers: 2})
	if err != nil {
		t.Fatalf("DecompressSalvageCtx: %v", err)
	}
	if len(out) != dims.N() || len(mask.Planes) != dims.SlowExtent() {
		t.Fatalf("salvage geometry = %d elems / %d planes, want %d / %d",
			len(out), len(mask.Planes), dims.N(), dims.SlowExtent())
	}
	plane := dims.PlaneElems()
	intactPlanes := 0
	for z := 0; z < dims.SlowExtent(); z++ {
		for e := z * plane; e < (z+1)*plane; e++ {
			if mask.Planes[z] {
				if out[e] != 0 {
					t.Fatalf("masked plane %d has nonzero element %d", z, e)
				}
			} else if out[e] != full[e] {
				t.Fatalf("recovered plane %d diverged at element %d", z, e)
			}
		}
		if !mask.Planes[z] {
			intactPlanes++
		}
	}
	if intactPlanes == 0 || intactPlanes == dims.SlowExtent() {
		t.Fatalf("intact planes = %d of %d: the cut should damage some, not all", intactPlanes, dims.SlowExtent())
	}
	if mask.DamagedPlanes() != dims.SlowExtent()-intactPlanes || !mask.Any() {
		t.Fatalf("DamagedPlanes = %d, want %d", mask.DamagedPlanes(), dims.SlowExtent()-intactPlanes)
	}
}

// An undamaged artifact salvage-reads identically to a normal decode,
// with an all-clear mask; an artifact with nothing intact errors.
func TestDecompressSalvageEdges(t *testing.T) {
	dims := grid.D3(12, 10, 8)
	data := sdrbench.GenNYX(dims, 9)
	blob, _, err := NewDefault().CompressChunkedReport(tp, data, dims, preprocess.RelBound(1e-4),
		ChunkOpts{ChunkElems: dims.PlaneElems() * 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, _, _, err := DecompressReportWithOpts(tp, blob, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	out, mask, err := DecompressSalvageCtx(context.Background(), tp, fzio.NewBytesFetcher(blob), DecompressOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if mask.Any() {
		t.Fatalf("pristine artifact masked %d planes", mask.DamagedPlanes())
	}
	for i := range full {
		if out[i] != full[i] {
			t.Fatalf("salvage read of a pristine artifact diverged at %d", i)
		}
	}

	ix, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}
	dead := append([]byte(nil), blob...)
	for _, ref := range ix.Chunks {
		dead[ref.Offset] ^= 0xFF
	}
	if _, _, err := DecompressSalvageCtx(context.Background(), tp, fzio.NewBytesFetcher(dead), DecompressOpts{}); err == nil {
		t.Fatal("DecompressSalvageCtx succeeded with zero intact chunks")
	}
}
