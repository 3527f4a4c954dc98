package core

import (
	"bytes"
	"strings"
	"testing"

	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
)

// TestScatterAssemblyMatchesGather is the byte-identity proof of the
// zero-copy container assembly: CompressChunkedReport (scatter-write path) must
// emit exactly the container the PR-1/PR-4 gather path produced —
// MarshalChunked over the per-slab monolithic containers compressed under
// the same resolved absolute bound. The +lz variants are the proof that
// retiring the executor's gather branch (secondary-encoded chunks now join
// the same layout → scatter tail) kept the bytes.
func TestScatterAssemblyMatchesGather(t *testing.T) {
	data, dims := chunkField()
	eb := preprocess.RelBound(1e-4)
	pipelines := Presets()
	for _, pl := range Presets() {
		pipelines = append(pipelines, pl.WithSecondary(LZSecondary{}))
	}
	for _, pl := range pipelines {
		opts := ChunkOpts{ChunkElems: dims.PlaneElems() * 8, Workers: 3}
		scatter, _, err := pl.CompressChunkedReport(tp, data, dims, eb, opts)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}

		absEB, _, err := preprocess.Resolve(tp, pl.PredPlace, data, eb)
		if err != nil {
			t.Fatal(err)
		}
		planes := planesFor(dims, opts.ChunkElems)
		slabs := grid.SplitSlabs(dims, planes)
		blobs := make([][]byte, len(slabs))
		perPlanes := make([]int, len(slabs))
		for i, sl := range slabs {
			chunk := data[sl.Lo : sl.Lo+sl.Dims.N()]
			b, err := pl.Compress(tp, chunk, sl.Dims, preprocess.AbsBound(absEB))
			if err != nil {
				t.Fatalf("%s slab %d: %v", pl.Name(), i, err)
			}
			blobs[i] = b
			perPlanes[i] = sl.Planes
		}
		relEB := 0.0
		if eb.Mode == preprocess.Rel {
			relEB = eb.Value
		}
		gather, err := fzio.MarshalChunked(fzio.ChunkedHeader{
			Pipeline: pl.PipelineName,
			Dims:     dims,
			EB:       absEB,
			RelEB:    relEB,
			Planes:   planes,
		}, blobs, perPlanes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(scatter, gather) {
			t.Fatalf("%s: scatter-assembled container differs from gather reference (%d vs %d bytes)",
				pl.Name(), len(scatter), len(gather))
		}
	}
}

// TestScatterContainerCorruptionDetected re-runs the corruption suite
// against containers produced by the scatter-write path: CRC payload
// flips and truncation must surface as decompression errors, exactly as
// for gather-built containers.
func TestScatterContainerCorruptionDetected(t *testing.T) {
	data, dims := chunkField()
	blob, _, err := NewDefault().CompressChunkedReport(tp, data, dims, preprocess.RelBound(1e-4),
		ChunkOpts{ChunkElems: dims.PlaneElems() * 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecompressReportWithOpts(tp, blob, Opts{}); err != nil {
		t.Fatalf("pristine container: %v", err)
	}

	cc, err := fzio.UnmarshalChunked(blob)
	if err != nil {
		t.Fatal(err)
	}
	payloadLen := 0
	for _, ref := range cc.Chunks {
		payloadLen += ref.Length
	}
	payloadStart := len(blob) - payloadLen

	// Flip one byte in every chunk's payload window in turn.
	for i, ref := range cc.Chunks {
		mut := append([]byte(nil), blob...)
		mut[payloadStart+ref.Offset+ref.Length/2] ^= 0x01
		if _, _, _, err := DecompressReportWithOpts(tp, mut, Opts{}); err == nil {
			t.Errorf("payload flip in chunk %d not detected", i)
		} else if !strings.Contains(err.Error(), "CRC") {
			t.Errorf("chunk %d: expected a CRC error, got %v", i, err)
		}
	}

	// Truncation inside the payload area.
	for _, cut := range []int{1, payloadLen / 3} {
		if _, _, _, err := DecompressReportWithOpts(tp, blob[:len(blob)-cut], Opts{}); err == nil {
			t.Errorf("truncation by %d bytes not detected", cut)
		}
	}

	// Flipping a sealed table CRC slot must fail its chunk — the slots the
	// scatter path writes are the ones the reader checks. The slot bytes
	// are located by diffing against a container rebuilt with one chunk's
	// payload modified (only that chunk's payload and CRC differ).
	ref, err := fzio.MarshalChunked(cc.Header, chunkPayloads(t, cc), chunkPlanes(cc))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, blob) {
		t.Fatal("gather rebuild of scatter container differs")
	}
	mut := append([]byte(nil), blob...)
	mut[payloadStart-2] ^= 0xff // inside the last chunk's planes/CRC tail
	if _, _, _, err := DecompressReportWithOpts(tp, mut, Opts{}); err == nil {
		t.Error("table tail flip not detected")
	}
}

// chunkPayloads extracts (and CRC-verifies) every chunk payload.
func chunkPayloads(t *testing.T, cc *fzio.ChunkedContainer) [][]byte {
	t.Helper()
	out := make([][]byte, cc.NumChunks())
	for i := range out {
		b, err := cc.Chunk(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// chunkPlanes lists the per-chunk plane extents.
func chunkPlanes(cc *fzio.ChunkedContainer) []int {
	out := make([]int, cc.NumChunks())
	for i, ref := range cc.Chunks {
		out[i] = ref.Planes
	}
	return out
}

// TestDecompressWithWorkersBudget checks the read-path budget: every
// worker width reconstructs the identical field.
func TestDecompressWithWorkersBudget(t *testing.T) {
	data, dims := chunkField()
	blob, _, err := NewDefault().CompressChunkedReport(tp, data, dims, preprocess.RelBound(1e-4),
		ChunkOpts{ChunkElems: dims.PlaneElems() * 8})
	if err != nil {
		t.Fatal(err)
	}
	ref, refDims, _, err := DecompressReportWithOpts(tp, blob, DecompressOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if refDims != dims {
		t.Fatalf("dims %v, want %v", refDims, dims)
	}
	for _, workers := range []int{2, 3, 8} {
		got, _, _, err := DecompressReportWithOpts(tp, blob, DecompressOpts{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: value %d differs", workers, i)
			}
		}
	}
}

// TestChunkedWorkerBudgetBitIdentical pins the write-path budget contract:
// every worker budget (including w=1, one worker per lane) produces the
// identical container bytes.
func TestChunkedWorkerBudgetBitIdentical(t *testing.T) {
	data, dims := chunkField()
	eb := preprocess.RelBound(1e-4)
	opts := ChunkOpts{ChunkElems: dims.PlaneElems() * 8, Workers: 1}
	ref, _, err := NewDefault().CompressChunkedReport(tp, data, dims, eb, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		opts.Workers = workers
		got, _, err := NewDefault().CompressChunkedReport(tp, data, dims, eb, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d container differs from serial run", workers)
		}
	}
}
