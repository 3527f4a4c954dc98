package core

import (
	"context"
	"fmt"
	"strconv"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
	"fzmod/internal/stf"
)

// This file is the in-memory write lowering — the one graph every
// Compress* entry point builds. The field is partitioned into independent
// slabs along its slowest-varying dimension, each slab gets one compression
// sub-graph (exec.go), and the sub-graphs are joined by a layout task that
// computes the output container's layout from the chunks' exact serialized
// sizes; per-chunk tail tasks then scatter-write their containers (sealing
// the table CRCs) directly into the final output buffer — no gather copy.
// Secondary-encoded chunks take the same tail: their size is only known
// once the secondary pass has run, so that pass simply precedes the layout.
// A field that fits one slab is the same graph at n=1 and emits the bare
// FZMD container instead of a one-entry FZMC table. The STF scheduler
// executes the graph over per-place work-stealing worker pools, so chunk
// concurrency is a property of the engine, not of this builder.
// Decompression mirrors this shape (see exec.go): every chunk decodes
// through its own sub-graph, so the read path is fully parallel.
//
// The error bound is resolved once against the whole field (a relative
// bound normalizes by the global value range) and applied to every chunk
// as an absolute bound, so every slab count enforces the identical
// tolerance and each chunk's reconstruction is bit-exact with the pipeline
// run on that slab alone.

const (
	// DefaultChunkElems is the target chunk granularity, in elements
	// (8 MiB of float32 — large enough to amortize per-chunk container
	// overhead, small enough to expose parallelism on modest fields).
	DefaultChunkElems = 2 << 20

	// AutoChunkElems is the input size, in elements, at which
	// Pipeline.Compress switches to the chunked graph automatically
	// (64 MiB of float32).
	AutoChunkElems = 16 << 20
)

// planesFor converts a target element count into whole planes of the
// slowest dimension (at least one).
func planesFor(dims grid.Dims, chunkElems int) int {
	if chunkElems <= 0 {
		chunkElems = DefaultChunkElems
	}
	planes := chunkElems / dims.PlaneElems()
	if planes < 1 {
		planes = 1
	}
	return planes
}

// ChunkPlanes returns the whole planes per chunk both write lowerings cut a
// dims-shaped field into for a target of chunkElems elements (0 = the
// default), after holding the geometry to the hard limits every reader
// enforces (docs/FORMAT.md §1.1): a field or a chunk count beyond them is
// refused here, with an error wrapping grid.ErrLimit, before a task is
// declared or a byte sliced — never written and then refused on read. A
// server calls it to validate a request ahead of spending a lease on it.
func ChunkPlanes(dims grid.Dims, chunkElems int) (int, error) {
	if !dims.Valid() {
		return 0, fmt.Errorf("core: invalid dims %v", dims)
	}
	g := dims.Geometry()
	// The extents first: planesFor multiplies them.
	if err := g.CheckLimits(); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	planes := planesFor(dims, chunkElems)
	g.Planes = uint64(planes)
	g.Chunks = uint64((dims.SlowExtent() + planes - 1) / planes)
	if err := g.CheckLimits(); err != nil {
		return 0, fmt.Errorf("core: dims %v in chunks of %d planes: %w", dims, planes, err)
	}
	return planes, nil
}

// chunkPrefix names chunk i's tasks and tokens within a graph.
func chunkPrefix(i int) string { return "c" + strconv.Itoa(i) + "." }

// CompressChunked compresses the field through the chunked task graph.
// Fields that fit in a single chunk lower to the monolithic one-chunk
// graph (producing a monolithic container); Decompress handles both.
func (pl *Pipeline) CompressChunked(p *device.Platform, data []float32, dims grid.Dims, eb preprocess.ErrorBound, opts ChunkOpts) ([]byte, error) {
	blob, _, err := pl.CompressChunkedReportCtx(context.Background(), p, data, dims, eb, opts)
	return blob, err
}

// CompressChunkedCtx is CompressChunked bounded by gctx: once the context
// is canceled or its deadline passes, task bodies not yet started are
// abandoned at their dispatch boundary, the graph drains, and the
// context's error is returned (pooled intermediates are swept back, so a
// canceled request leaks neither goroutines nor slabs).
func (pl *Pipeline) CompressChunkedCtx(gctx context.Context, p *device.Platform, data []float32, dims grid.Dims, eb preprocess.ErrorBound, opts ChunkOpts) ([]byte, error) {
	blob, _, err := pl.CompressChunkedReportCtx(gctx, p, data, dims, eb, opts)
	return blob, err
}

// CompressChunkedReport is CompressChunked returning the executor report.
func (pl *Pipeline) CompressChunkedReport(p *device.Platform, data []float32, dims grid.Dims, eb preprocess.ErrorBound, opts ChunkOpts) ([]byte, *ExecReport, error) {
	return pl.CompressChunkedReportCtx(context.Background(), p, data, dims, eb, opts)
}

// CompressChunkedReportCtx is CompressChunkedCtx returning the executor
// report. It is the single write lowering: validate → budget → resolve the
// bound → one sub-graph per slab → layout → scatter-write into the sink.
// The bound is resolved on the budgeted platform view, so Opts.Workers caps
// that launch too.
func (pl *Pipeline) CompressChunkedReportCtx(gctx context.Context, p *device.Platform, data []float32, dims grid.Dims, eb preprocess.ErrorBound, opts ChunkOpts) ([]byte, *ExecReport, error) {
	planes, err := ChunkPlanes(dims, opts.ChunkElems)
	if err != nil {
		return nil, nil, err
	}
	if dims.N() != len(data) {
		return nil, nil, fmt.Errorf("core: dims %v do not match %d values", dims, len(data))
	}
	slabs := grid.SplitSlabs(dims, planes)
	ctx := newCtx(gctx, p, pl.PredPlace, opts.Workers, len(slabs))
	absEB, _, err := preprocess.Resolve(ctx.Platform(), pl.PredPlace, data, eb)
	if err != nil {
		ctx.Release()
		return nil, nil, err
	}
	hdr := fzio.ChunkedHeader{
		Pipeline: pl.PipelineName,
		Dims:     dims,
		EB:       absEB,
		Planes:   planes,
	}
	if eb.Mode == preprocess.Rel {
		hdr.RelEB = eb.Value
	}
	// The relative bound is recorded once, in the outermost header: the
	// FZMC table's for a multi-slab field, the container's own at one slab.
	chunkRelEB := 0.0
	if len(slabs) == 1 {
		chunkRelEB = hdr.RelEB
	}

	// One sub-graph per slab; each chunk is compressed under the globally
	// resolved absolute bound, so per-chunk containers are byte-identical
	// to a one-slab run on that slab.
	jobs := make([]*compressJob, len(slabs))
	for i, sl := range slabs {
		chunk := data[sl.Lo : sl.Lo+sl.Dims.N()]
		jobs[i] = pl.addCompressTasks(ctx, chunkPrefix(i), chunk, sl.Dims, absEB, chunkRelEB)
	}

	// Zero-copy scatter assembly: every chunk's exact serialized size is
	// known once its sub-graph finishes, so the layout task fixes the
	// output's chunk table up front and each chunk's tail task writes its
	// container — and seals its table CRC — directly into its disjoint
	// window of the final buffer. One slab has nothing to lay out: its tail
	// follows the sub-graph directly and its window is the whole output,
	// the bare FZMD container.
	var (
		out []byte
		asm *fzio.ChunkedAssembly
	)
	ready := jobs[0].tok
	if len(jobs) > 1 {
		sized := make([]*stf.Token, len(jobs))
		for i, job := range jobs {
			sized[i] = job.tok
		}
		layoutTok := stf.NewToken(ctx, "layout")
		ctx.Task("layout").On(device.Host).Reads(sized...).Writes(layoutTok).
			Do(func(ti *stf.TaskInstance) error {
				sizes, perPlanes := make([]int, len(jobs)), make([]int, len(jobs))
				for i, job := range jobs {
					sizes[i], perPlanes[i] = job.size(), slabs[i].Planes
				}
				a, err := fzio.NewChunkedAssembly(hdr, sizes, perPlanes)
				asm = a
				return err
			})
		ready = layoutTok
	}
	for i := range jobs {
		i := i
		ctx.Task(chunkPrefix(i) + "serialize").On(device.Host).Reads(ready).
			Do(func(ti *stf.TaskInstance) error {
				if asm == nil {
					out = make([]byte, jobs[i].size())
					return jobs[i].writeInto(out)
				}
				if err := jobs[i].writeInto(asm.ChunkSlice(i)); err != nil {
					return err
				}
				asm.SealChunk(i)
				return nil
			})
	}

	report, err := finish(ctx)
	if err != nil {
		sweepJobs(p.ScratchPool(), jobs)
		return nil, report, err
	}
	if asm != nil {
		out = asm.Bytes()
	}
	return out, report, nil
}
