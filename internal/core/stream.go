package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
	"fzmod/internal/stf"
)

// This file is the out-of-core layer: CompressStreamCtx consumes an
// io.Reader and DecompressStreamCtx produces an io.Writer chunk by chunk.
// Each door declares the in-memory chunked path's per-chunk sub-graphs (so
// per-chunk output is bit-identical to it) into one graph and slides a
// window of chunks over it (slide), overlapping reading, computing and
// writing with resident memory O(window). The on-wire format is the FZMS
// streaming container (see fzio/stream.go): chunks flush as they finish,
// the index rides in a trailer.

const (
	// DefaultStreamWindow is the default number of chunks in flight: deep
	// enough to keep every stage of the per-chunk graphs busy, shallow
	// enough that resident memory stays a small multiple of the chunk
	// size.
	DefaultStreamWindow = 4

	// streamStageBytes is the staging-buffer size for io<->float32
	// conversion (drawn from the platform pool, recycled per call).
	streamStageBytes = 256 << 10
)

// errChunkFailed marks a chunk whose sub-graph completed without output;
// the graph's own error, from Finalize, says why.
var errChunkFailed = errors.New("core: stream chunk failed")

// slide runs both stream doors' window protocol over one graph.
// declare(i, slot) reads chunk i into ring slot i%window and declares its
// sub-graph, returning its last task's done channel (nil at the end of the
// input); it runs once chunk i−window has been emitted, unless gctx is
// canceled. emit(i, slot) writes chunk i on the caller, in order, once its
// sub-graph has completed, or returns errChunkFailed if it left no output.
// The graph is finalized and released once; the caller's own read or write
// error wins over the graph's.
func slide(ctx *stf.Ctx, window int, declare func(i, slot int) (<-chan struct{}, error),
	emit func(i, slot int) error) error {
	done := make([]<-chan struct{}, window)
	var err error
	// end is the index of the first chunk not declared, -1 until then.
	for i, end := 0, -1; err == nil && (end < 0 || i < end+window); i++ {
		slot := i % window
		if done[slot] != nil {
			<-done[slot]
			if err = emit(i-window, slot); err != nil {
				break
			}
		}
		done[slot] = nil
		if end < 0 {
			if err = ctx.Context().Err(); err == nil {
				done[slot], err = declare(i, slot)
			}
			if done[slot] == nil {
				end = i
			}
		}
	}
	if ferr := ctx.Finalize(); ferr != nil && (err == nil || err == errChunkFailed) {
		err = ferr
	}
	ctx.Release()
	return err
}

// CompressStreamCtx compresses a dims-shaped field of little-endian
// float32 values read from r into a streaming (FZMS) container written to
// w, with at most opts.Window chunks in flight. The error bound must be
// absolute: a value-range-relative bound needs a pass over the whole
// field, which an out-of-core compressor cannot take — resolve it first
// (preprocess.Resolve). ChunkElems 0 cuts at DefaultChunkElems, whatever
// the field size. Per-chunk payloads are bit-identical to
// CompressChunkedReportCtx cutting the same field at the same planes, so
// reassembling the stream yields that container byte for byte. Returns
// the compressed bytes written. Cancellation of gctx stops unstarted task bodies, drains the
// graph, sweeps pooled intermediates back and returns the context's error
// with the bytes written so far: the stream is left truncated, as any
// other mid-stream error leaves it.
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
	jobs := make([]*compressJob, window)
	err = slide(ctx, window,
		func(i, slot int) (<-chan struct{}, error) {
			if i == len(slabs) {
				return nil, nil
			}
			in := bp.GetF32(slabs[i].Elems(), false)
			if err := device.ReadF32(r, in.Data, stage.Data); err != nil {
				bp.PutF32(in)
				return nil, fmt.Errorf("core: reading slab %d (%d values): %w", i, slabs[i].Elems(), err)
			}
			// Staged in the graph: each chunk's container is serialized
			// into an exact-size pooled slab, recycled once flushed.
			prefix := fmt.Sprintf("s%d.", i)
			jobs[slot] = pl.addPredictEncodeTasks(ctx, prefix, in.Data, slabs[i].Dims, absEB, 0)
			jobs[slot].in = in
			return pl.addStageTasks(ctx, prefix, jobs[slot]), nil
		},
		func(i, slot int) error {
			if jobs[slot].blob == nil {
				return errChunkFailed
			}
			werr := sw.WriteChunk(jobs[slot].blob, slabs[i].Planes)
			jobs[slot].releaseSlabs(bp)
			return werr
		})
	// Failed or unemitted chunks may still hold their pooled input, code
	// and container slabs.
	sweepJobs(bp, jobs)
	if err == nil {
		err = sw.Close()
	}
	return sw.BytesWritten(), err
}

// DecompressStreamCtx reconstructs a streaming (FZMS) container read from
// r, writing the field to w as little-endian float32 bytes in storage
// order, with at most opts.Window chunks in flight. Each chunk decodes
// through the sub-graph the in-memory read path uses and is written out as
// soon as it and every chunk before it are done. Returns the field
// geometry. Cancellation of gctx stops the in-flight chunks, reads nothing
// further, and returns the context's error.
func DecompressStreamCtx(gctx context.Context, p *device.Platform, r io.Reader, w io.Writer, opts StreamOpts) (grid.Dims, error) {
	sr, err := fzio.NewStreamReader(r)
	if err != nil {
		return grid.Dims{}, err
	}
	dims := sr.Header().Dims
	window := opts.window(dims.SlowExtent()) // a chunk has at least one plane
	bp := p.ScratchPool()
	stage := bp.GetBytes(streamStageBytes, false)
	defer bp.PutBytes(stage)
	ctx := newCtx(gctx, p, device.Accel, opts.Workers, window)

	// Per-slot payload buffers grow to the largest chunk seen and stay
	// there, and each slot's values land in a pooled slab returned once
	// written, so steady-state decoding allocates nothing field-sized.
	payloads := make([][]byte, window)
	jobs := make([]*decompressJob, window)
	decoded := make([]bool, window)
	err = slide(ctx, window,
		func(i, slot int) (<-chan struct{}, error) {
			payload, planes, err := sr.Next(payloads[slot])
			if err == io.EOF {
				return nil, nil
			}
			if err != nil {
				return nil, err
			}
			payloads[slot] = payload
			want := dims.WithSlowExtent(planes)
			out := bp.GetF32(want.N(), false)
			jobs[slot] = addDecompressTasks(ctx, fmt.Sprintf("s%d.", i), i, want, &out.Data, nil,
				func() ([]byte, error) { return payload, nil }, // sr.Next verified the frame CRC
				func([]float32) error { decoded[slot] = true; return nil })
			jobs[slot].out = out
			return jobs[slot].done, nil
		},
		func(i, slot int) error {
			if !decoded[slot] {
				return errChunkFailed
			}
			decoded[slot] = false
			werr := device.WriteF32(w, jobs[slot].out.Data, stage.Data)
			jobs[slot].releaseSlabs(bp)
			if werr != nil {
				return fmt.Errorf("core: writing chunk %d: %w", i, werr)
			}
			return nil
		})
	// Failed or unemitted chunks may still hold their code and value slabs.
	sweepJobs(bp, jobs)
	if err != nil {
		return grid.Dims{}, err
	}
	return dims, nil
}
