package core

import (
	"context"
	"fmt"
	"io"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
)

// This file is the out-of-core layer over the task-graph engine: instead
// of requiring the whole field (and the whole compressed blob) resident in
// memory, CompressStreamCtx consumes an io.Reader slab window by slab
// window and DecompressStreamCtx produces an io.Writer the same way. Each
// window lowers onto the identical per-chunk sub-graphs the in-memory
// chunked path declares (so per-chunk output is bit-identical to it),
// executed over one reused stf context whose worker pools stay warm across
// windows; slab inputs, staging buffers and quantization codes all cycle
// through the platform's BufPool, keeping resident memory O(window)
// regardless of field size. The on-wire format is the FZMS streaming
// container (see fzio/stream.go): chunks flush as they finish, the index
// rides in a trailer.

const (
	// DefaultStreamWindow is the default number of slabs in flight: deep
	// enough to keep every stage of the per-chunk graphs busy, shallow
	// enough that resident memory stays a small multiple of the chunk
	// size.
	DefaultStreamWindow = 4

	// streamStageBytes is the staging-buffer size for io<->float32
	// conversion (drawn from the platform pool, recycled per call).
	streamStageBytes = 256 << 10
)

// CompressStreamCtx compresses a dims-shaped field of little-endian
// float32 values read from r into a streaming (FZMS) container written to
// w, holding at most opts.Window slabs in memory at a time. The error bound
// must be absolute: a value-range-relative bound needs a pass over the
// whole field, which an out-of-core compressor by definition cannot take —
// resolve it first (preprocess.Resolve) and pass the absolute bound.
// Per-chunk payloads are bit-identical to CompressChunkedReportCtx on the
// same field, so reassembling the stream yields that container byte for
// byte. Returns the compressed bytes written. Cancellation of gctx stops
// the current window's unstarted task bodies at their dispatch boundary,
// drains the graph, sweeps pooled intermediates back, and returns the
// context's error with the bytes written so far (the stream is left
// truncated mid-container, exactly as any other mid-stream error leaves
// it).
func (pl *Pipeline) CompressStreamCtx(gctx context.Context, p *device.Platform, r io.Reader, dims grid.Dims, eb preprocess.ErrorBound, w io.Writer, opts StreamOpts) (int64, error) {
	planes, err := ChunkPlanes(dims, opts.ChunkElems)
	if err != nil {
		return 0, err
	}
	if err := eb.Validate(); err != nil {
		return 0, err
	}
	if eb.Mode != preprocess.Abs {
		return 0, fmt.Errorf("core: streaming compression requires an absolute error bound (a relative bound needs the whole field's value range; resolve it first)")
	}
	absEB := eb.Value
	slabs := grid.SplitSlabs(dims, planes)

	sw, err := fzio.NewStreamWriter(w, fzio.ChunkedHeader{
		Pipeline: pl.PipelineName,
		Dims:     dims,
		EB:       absEB,
		Planes:   planes,
	})
	if err != nil {
		return 0, err
	}

	window := opts.window(len(slabs))
	bp := p.ScratchPool()
	stage := bp.GetBytes(streamStageBytes, false)
	defer bp.PutBytes(stage)
	ctx := newCtx(gctx, p, pl.PredPlace, opts.Workers, window)
	defer ctx.Release()

	for start := 0; start < len(slabs); start += window {
		batch := slabs[start:min(start+window, len(slabs))]
		bufs := make([]*device.Slab[float32], len(batch))
		jobs := make([]*compressJob, len(batch))
		var readErr error
		for i, sl := range batch {
			bufs[i] = bp.GetF32(sl.Elems(), false)
			if err := device.ReadF32(r, bufs[i].Data, stage.Data); err != nil {
				readErr = fmt.Errorf("core: reading slab %d (%d values): %w", start+i, sl.Elems(), err)
				break
			}
			// Staged in the graph: each chunk's container is serialized
			// into an exact-size pooled slab, flushed as a frame below, and
			// the slab recycled — the window's staging cost is the frames
			// themselves, not a fresh blob per chunk.
			prefix := fmt.Sprintf("s%d.", start+i)
			jobs[i] = pl.addPredictEncodeTasks(ctx, prefix, bufs[i].Data, sl.Dims, absEB, 0)
			pl.addStageTasks(ctx, prefix, jobs[i])
		}
		// Reset drains whatever was declared (possibly a partial batch on a
		// read error) before the input slabs go back to the pool.
		err := ctx.Reset()
		for _, b := range bufs {
			bp.PutF32(b)
		}
		release := func(from int) {
			// Failed or canceled sub-graphs may still hold their pooled code
			// buffers as well as the container slab; sweep both.
			sweepJobs(bp, jobs[from:])
		}
		if readErr != nil {
			release(0)
			return sw.BytesWritten(), readErr
		}
		if err != nil {
			release(0)
			return sw.BytesWritten(), err
		}
		for i, sl := range batch {
			werr := sw.WriteChunk(jobs[i].blob, sl.Planes)
			if jobs[i].blobSlab != nil {
				bp.PutBytes(jobs[i].blobSlab)
				jobs[i].blobSlab = nil
			}
			if werr != nil {
				release(i + 1)
				return sw.BytesWritten(), werr
			}
		}
	}
	if err := sw.Close(); err != nil {
		return sw.BytesWritten(), err
	}
	return sw.BytesWritten(), nil
}

// DecompressStreamCtx reconstructs a streaming (FZMS) container read from
// r, writing the field to w as little-endian float32 bytes in storage
// order, with at most opts.Window chunks in flight. Chunks within a window
// decode in parallel through the same fetch → decode → reconstruct
// sub-graphs the in-memory read path uses; output is flushed in order as
// each window completes. Returns the decoded field geometry. Cancellation
// of gctx drains the current window, reads nothing further, and returns
// the context's error.
func DecompressStreamCtx(gctx context.Context, p *device.Platform, r io.Reader, w io.Writer, opts StreamOpts) (grid.Dims, error) {
	sr, err := fzio.NewStreamReader(r)
	if err != nil {
		return grid.Dims{}, err
	}
	dims := sr.Header().Dims
	nChunks := 1
	if sr.Header().Planes > 0 {
		nChunks = (dims.SlowExtent() + sr.Header().Planes - 1) / sr.Header().Planes
	}
	window := opts.window(nChunks)
	bp := p.ScratchPool()
	stage := bp.GetBytes(streamStageBytes, false)
	defer bp.PutBytes(stage)
	ctx := newCtx(gctx, p, device.Accel, opts.Workers, window)
	defer ctx.Release()

	// Per-slot payload buffers are reused across windows; they grow to the
	// largest chunk seen and stay there, so steady-state reading allocates
	// nothing.
	payloads := make([][]byte, window)
	vals := make([][]float32, window)
	chunkIdx := 0
	for done := false; !done; {
		n := 0 // chunks in this window
		for ; n < window; n++ {
			payload, planes, err := sr.Next(payloads[n])
			if err == io.EOF {
				done = true
				break
			}
			if err != nil {
				// Drain any already-declared sub-graphs before returning.
				ctx.Reset()
				return grid.Dims{}, err
			}
			payloads[n] = payload
			n := n
			addDecompressTasks(ctx, fmt.Sprintf("s%d.", chunkIdx+n), chunkIdx+n, dims.WithSlowExtent(planes), nil,
				func() ([]byte, error) { return payload, nil }, // sr.Next verified the frame CRC
				func(v []float32) error { vals[n] = v; return nil })
		}
		if err := ctx.Reset(); err != nil {
			return grid.Dims{}, err
		}
		for i := 0; i < n; i++ {
			if err := device.WriteF32(w, vals[i], stage.Data); err != nil {
				return grid.Dims{}, fmt.Errorf("core: writing chunk %d: %w", chunkIdx+i, err)
			}
			vals[i] = nil
		}
		chunkIdx += n
	}
	return dims, nil
}
