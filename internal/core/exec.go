package core

import (
	"context"
	"fmt"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/stf"
)

// This file is the framework's single execution engine: every public
// compress/decompress entry point lowers its pipeline to an STF task graph
// built from the two per-chunk sub-graph builders below, and the stf
// scheduler executes it with pooled scratch buffers over one worker pool
// per place, whose workers share one ready queue: a stage readied by a
// worker of its own place runs next, so a chunk's sub-graph runs back to
// back, and other ready stages wait in declaration order.
//
// Write side: predict → encode per block (addPredictEncodeTasks), then
// stage (→ secondary) where the sink needs the block's bytes staged
// (addStageTasks). The in-memory lowering (chunked.go) joins the blocks
// with a layout task and scatter-writes them into the FZMD or FZMC output;
// the streaming lowering (stream.go) keeps declaring blocks into one graph
// as a sliding window and flushes each staged block as an FZMS frame.
//
// Read side: addDecompressTasks is the only place a chunk payload is
// parsed, secondary-unwrapped, decoded, dims-checked and reconstructed.
// Full decompress, region reads, salvage and stream decode each plan their
// chunk list, hand every chunk to the builder with a fetch closure that
// returns integrity-checked bytes and the destination its values land in,
// and finalize — so a hostile payload meets the same checks whichever door
// it comes through. There is no other executor: a monolithic (FZMD)
// container is simply a one-chunk graph.
//
// Modules write into buffers the executor owns: predict and decode fill a
// pooled code slab, reconstruct fills the door's destination. A failed or
// canceled graph skips the task that returns a slab, so every door sweeps
// its jobs once the graph has drained.
//
// Every operation runs under one parallelism budget, resolved by newCtx.

// ExecReport carries the execution evidence of one lowered pipeline run:
// the task trace (for checking stage overlap), the inferred DAG in
// Graphviz dot syntax, the critical-path length, and a snapshot of the
// platform buffer-pool counters taken when the run finished.
type ExecReport struct {
	Trace        []stf.TaskTrace
	DOT          string
	Tasks        int
	CriticalPath int
	// Pool snapshots the platform's cumulative scratch-pool counters at
	// report time; the hit rate approaches 1 as steady-state runs reuse
	// warm slabs.
	Pool device.PoolStats
	// Kernels names the SIMD implementation tier the dispatched hot-loop
	// kernels ran with ("avx2", "neon", or "purego") and KernelDetail the
	// per-kernel split — execution evidence for benchmark rows and for
	// confirming which implementation a profile measured.
	Kernels      string
	KernelDetail map[string]string
	// Region carries the chunk and slab-cache accounting of a region read
	// (nil for full compress/decompress runs).
	Region *RegionStats
}

// Overlapped reports whether any two tasks ran concurrently.
func (r *ExecReport) Overlapped() bool { return stf.Overlapped(r.Trace) }

// finish drains the graph, sweeps the pooled slabs a failed graph left in
// its jobs (sweepJobs), snapshots its report and retires the context's
// workers.
func finish[J interface{ releaseSlabs(*device.BufPool) }](ctx *stf.Ctx, jobs []J) (*ExecReport, error) {
	err := ctx.Finalize()
	p := ctx.Platform()
	if err != nil {
		sweepJobs(p.ScratchPool(), jobs)
	}
	trace := ctx.Trace()
	report := &ExecReport{
		Trace:        trace,
		DOT:          ctx.DOT(),
		Tasks:        len(trace),
		CriticalPath: ctx.CriticalPath(),
		Pool:         p.ScratchPool().Stats(),
		Kernels:      p.KernelImpl(),
		KernelDetail: p.KernelDetail(),
	}
	ctx.Release()
	return report, err
}

// newCtx opens the STF context of one operation under its parallelism
// budget — the one rule compress, decompress, region read, salvage and the
// streaming entry points share. The budget is workers (Opts.Workers), or the
// platform's width at place when that is 0. It caps the kernel width of
// every launch through a narrowed platform view (ctx.Platform()), and the
// chunk-level scheduler width at min(budget, chunks), chunks being the
// sub-graphs in flight at once: wider pools would only park idle workers,
// since each sub-graph is a chain. Output bytes never depend on the budget.
func newCtx(gctx context.Context, p *device.Platform, place device.Place, workers, chunks int) *stf.Ctx {
	if workers <= 0 {
		workers = p.Workers(place)
	}
	return stf.NewCtx(p.WithWorkers(workers), min(workers, chunks)).Bind(gctx)
}

// compressJob carries one chunk's dynamically sized intermediates through
// its task chain. Logical tokens express the dependencies; the payloads
// travel through the job because module outputs (code streams, container
// bytes) have sizes unknown at graph-build time — the pattern CUDASTF
// handles with oversized logical buffers.
type compressJob struct {
	pred  *Prediction
	inner *fzio.Container // built once encode finishes; sized, not copied
	// blob is the chunk's staged serialized form, set by addStageTasks'
	// last task once it succeeds: nil after the sub-graph completed means
	// the chunk failed.
	blob []byte
	// tok is written by the last task declared for the job so far; a
	// consumer reading it runs once the job's size (and blob, if staged)
	// is final.
	tok *stf.Token
	// codesSlab is the pooled quantization-code buffer the predict task
	// fills; the encode task returns it to the pool once the code stream
	// has been consumed.
	codesSlab *device.Slab[uint16]
	// blobSlab backs the stage task's output: recycled by the secondary
	// task once the inner blob is wrapped, or by the streaming path after
	// the frame is flushed.
	blobSlab *device.Slab[byte]
	in       *device.Slab[float32] // a streamed chunk's pooled input
}

// size and writeInto are the view the scatter-assembly tail has of a
// finished job, whichever way its bytes were produced: a staged job
// (secondary-encoded — its size is unknown until that pass has run) copies
// its blob, an unstaged one serializes its container straight into the
// destination window with no intermediate copy. size is exact; dst must be
// size() bytes.
func (job *compressJob) size() int {
	if job.blob != nil {
		return len(job.blob)
	}
	return job.inner.MarshaledSize()
}

func (job *compressJob) writeInto(dst []byte) error {
	if job.blob != nil {
		copy(dst, job.blob)
		return nil
	}
	_, err := job.inner.MarshalInto(dst)
	return err
}

// releaseSlabs hands back any pooled slab the sub-graph still holds. The
// encode and secondary task bodies normally recycle codesSlab/blobSlab,
// but a failed or canceled graph skips those bodies — the caller must
// sweep after Finalize reports an error, or the checkout leaks and the
// pool's gets==puts accounting breaks. Safe only once the job's sub-graph
// has completed (no task body can still touch the job); a nil job holds
// nothing.
func (job *compressJob) releaseSlabs(bp *device.BufPool) {
	if job == nil {
		return
	}
	if job.codesSlab != nil {
		bp.PutU16(job.codesSlab)
		job.codesSlab = nil
		if job.pred != nil {
			job.pred.Codes = nil
		}
	}
	if job.blobSlab != nil {
		bp.PutBytes(job.blobSlab)
		job.blobSlab = nil
	}
	if job.in != nil {
		bp.PutF32(job.in)
		job.in = nil
	}
}

// sweepJobs releaseSlabs-es every declared job after a failed graph.
func sweepJobs[J interface{ releaseSlabs(*device.BufPool) }](bp *device.BufPool, jobs []J) {
	for _, job := range jobs {
		job.releaseSlabs(bp)
	}
}

// addPredictEncodeTasks declares one block's compression sub-graph up to
// the point its container is sized: predict+quantize at the pipeline's
// predictor place and primary encoding at the encoder place, which also
// assembles the (unserialized) container view over the stage outputs. Task
// and token names are prefixed so the sub-graphs of several chunks coexist
// in one context; chunks share no token, so the scheduler is free
// to overlap them.
func (pl *Pipeline) addPredictEncodeTasks(ctx *stf.Ctx, prefix string, data []float32, dims grid.Dims, absEB, relEB float64) *compressJob {
	p := ctx.Platform()
	job := &compressJob{}
	predTok := stf.NewToken(ctx, prefix+"pred")
	encTok := stf.NewToken(ctx, prefix+"enc")
	job.tok = encTok

	ctx.Task(prefix + "predict").On(pl.PredPlace).Writes(predTok).
		Do(func(ti *stf.TaskInstance) error {
			// Pooled codes: the slab is recycled by the encode task, so a
			// many-chunk run reuses a window's worth of code buffers
			// instead of allocating 2 bytes per field element.
			job.codesSlab = p.ScratchPool().GetU16(dims.N(), false)
			pred, err := pl.Pred.Predict(p, ti.Place(), data, dims, absEB, job.codesSlab.Data)
			if err != nil {
				return fmt.Errorf("core: %s predict: %w", pl.Pred.Name(), err)
			}
			job.pred = pred
			return nil
		})

	ctx.Task(prefix + "encode").On(pl.EncPlace).Reads(predTok).Writes(encTok).
		Do(func(ti *stf.TaskInstance) error {
			defer func() {
				// The code stream is dead after encoding (serialization only
				// touches Extras and Radius); recycle the pooled buffer.
				p.ScratchPool().PutU16(job.codesSlab)
				job.codesSlab, job.pred.Codes = nil, nil
			}()
			payload, err := pl.Enc.EncodeCodes(p, ti.Place(), job.pred.Codes, job.pred.Radius)
			if err != nil {
				return fmt.Errorf("core: %s encode: %w", pl.Enc.Name(), err)
			}
			job.inner, err = pl.buildInner(dims, absEB, relEB, job.pred, payload)
			return err
		})
	return job
}

// addStageTasks stages the block's bytes in the graph: container
// serialization on the host into an exact-size pooled buffer, and — when
// the pipeline carries a secondary encoder — the secondary pass rewriting
// the serialized blob. It returns the done channel of the last task.
func (pl *Pipeline) addStageTasks(ctx *stf.Ctx, prefix string, job *compressJob) <-chan struct{} {
	p := ctx.Platform()
	blobTok := stf.NewToken(ctx, prefix+"blob")

	done := ctx.Task(prefix + "stage").On(device.Host).Reads(job.tok).Writes(blobTok).
		Do(func(ti *stf.TaskInstance) error {
			job.blobSlab = p.ScratchPool().GetBytes(job.inner.MarshaledSize(), false)
			_, err := job.inner.MarshalInto(job.blobSlab.Data)
			if err == nil && pl.Sec == nil {
				job.blob = job.blobSlab.Data
			}
			return err
		})
	job.tok = blobTok

	if pl.Sec != nil {
		done = ctx.Task(prefix + "secondary").On(pl.EncPlace).ReadsWrites(blobTok).
			Do(func(ti *stf.TaskInstance) error {
				blob, err := pl.wrapSecondary(p, ti.Place(), job.blobSlab.Data, job.inner.Header)
				if err != nil {
					return err
				}
				// The inner blob is dead once wrapped; recycle its slab.
				p.ScratchPool().PutBytes(job.blobSlab)
				job.blobSlab = nil
				job.blob = blob
				return nil
			})
	}
	return done
}

// decompressJob carries one chunk's decode state through its task chain;
// sizes and module identities only become known as tasks execute. codes is
// the pooled slab the decode task fills and the reconstruct task returns.
type decompressJob struct {
	c     *fzio.Container
	pr    Predictor
	codes *device.Slab[uint16]
	out   *device.Slab[float32] // a streamed chunk's pooled destination
	done  <-chan struct{}       // closed once the reconstruct task has run
}

// releaseSlabs is compressJob.releaseSlabs for the read side.
func (job *decompressJob) releaseSlabs(bp *device.BufPool) {
	if job == nil {
		return
	}
	if job.codes != nil {
		bp.PutU16(job.codes)
		job.codes = nil
	}
	if job.out != nil {
		bp.PutF32(job.out)
		job.out = nil
	}
}

// addDecompressTasks declares one chunk's read sub-graph, fetch → decode →
// reconstruct, and is the single place a chunk payload is parsed and
// decoded — every read path lowers onto it, so they enforce the same
// checks. chunk is the payload's index in its container (for errors) and
// want the geometry the container's chunk table assigns it.
//
// fetch runs in the Host-place task (it may block on I/O) and returns the
// payload bytes with the container-level integrity checks — chunk CRC,
// leaf hash — already applied; a nil payload with a nil error means the
// chunk was served some other way, and the sub-graph skips straight to
// after. The payload must be a plain FZMD container (a nested FZMC or FZMS
// would recurse without bound), optionally secondary-wrapped, recording
// exactly want. The values are reconstructed into dst (len want.N(), any
// contents); after, when non-nil, then runs with dst (nil for a skipped
// chunk) inside the reconstruct task. The returned job's pooled slabs are
// the caller's to sweep once the graph has drained.
func addDecompressTasks(ctx *stf.Ctx, prefix string, chunk int, want grid.Dims, dst []float32,
	fetch func() ([]byte, error), after func(vals []float32) error) *decompressJob {
	p := ctx.Platform()
	job := &decompressJob{}
	fetchTok := stf.NewToken(ctx, prefix+"container")
	codesTok := stf.NewToken(ctx, prefix+"codes")

	ctx.Task(prefix + "fetch").On(device.Host).Writes(fetchTok).
		Do(func(ti *stf.TaskInstance) error {
			payload, err := fetch()
			if err != nil || payload == nil {
				return err
			}
			if fzio.IsChunked(payload) || fzio.IsStream(payload) {
				return fmt.Errorf("core: chunk %d: nested container", chunk)
			}
			c, err := fzio.Unmarshal(payload)
			if err != nil {
				return fmt.Errorf("core: parsing chunk %d: %w", chunk, err)
			}
			if c.Has(segSec) {
				if c, err = unwrapSecondary(p, c); err != nil {
					return fmt.Errorf("core: chunk %d: %w", chunk, err)
				}
			}
			if c.Header.Dims != want {
				return fmt.Errorf("core: chunk %d dims %v, want %v", chunk, c.Header.Dims, want)
			}
			job.c = c
			return nil
		})
	// The primary code stream decodes at the accelerator place, into a
	// slab of exactly want.N() codes. The read side picks Accel itself:
	// the presets place only the write side (Default and Quality encode
	// Huffman on the host).
	ctx.Task(prefix + "decode").On(device.Accel).Reads(fetchTok).Writes(codesTok).
		Do(func(ti *stf.TaskInstance) error {
			if job.c == nil {
				return nil
			}
			pr, enc, err := containerModules(job.c)
			if err != nil {
				return err
			}
			payload, err := job.c.Segment(segCodes)
			if err != nil {
				return err
			}
			job.pr, job.codes = pr, p.ScratchPool().GetU16(want.N(), false)
			if err := enc.DecodeCodes(p, ti.Place(), payload, job.codes.Data); err != nil {
				return fmt.Errorf("core: %s decode: %w", enc.Name(), err)
			}
			return nil
		})
	job.done = ctx.Task(prefix + "reconstruct").On(device.Accel).Reads(codesTok).
		Do(func(ti *stf.TaskInstance) error {
			vals := dst
			if job.c == nil {
				vals = nil
			} else {
				codes := job.codes
				job.codes = nil
				defer p.ScratchPool().PutU16(codes)
				pred := containerPrediction(job.c, codes.Data)
				if err := job.pr.Reconstruct(p, ti.Place(), pred, want, job.c.Header.EB, dst); err != nil {
					return fmt.Errorf("core: %s reconstruct: %w", job.pr.Name(), err)
				}
			}
			if after == nil {
				return nil
			}
			return after(vals)
		})
	return job
}

// DecompressReportWithOptsCtx reconstructs a field from any FZModules
// container using the module table. It lowers a whole-container decode
// onto one read sub-graph per entry of the container's chunk index — the
// same fzio.FetchIndex a region read plans against, so FZMD, FZMC and FZMS
// blobs all take this path — each reconstructing into its window of the
// output field; the chunks share no token, so they decode fully in
// parallel. An FZMD blob is a one-entry index covering every plane (its
// integrity is the per-segment CRCs the builder's parse verifies); FZMC
// and FZMS payloads are CRC-checked against the index as they are fetched.
// opts.Workers is the parallelism budget; a cancellation or deadline on
// gctx abandons unstarted task bodies at their dispatch boundary and
// returns the context's error.
func DecompressReportWithOptsCtx(gctx context.Context, p *device.Platform, blob []byte, opts DecompressOpts) ([]float32, grid.Dims, *ExecReport, error) {
	ix, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob))
	if err != nil {
		return nil, grid.Dims{}, nil, err
	}
	dims := ix.Header.Dims
	out := make([]float32, dims.N())
	ctx := newCtx(gctx, p, device.Accel, opts.Workers, len(ix.Chunks))
	jobs := make([]*decompressJob, len(ix.Chunks))
	lo := 0
	for i, ref := range ix.Chunks {
		i, ref := i, ref
		want := dims.WithSlowExtent(ref.Planes)
		jobs[i] = addDecompressTasks(ctx, chunkPrefix(i), i, want, out[lo:lo+want.N()],
			func() ([]byte, error) {
				payload := blob[ref.Offset : ref.Offset+ref.Length]
				return payload, ix.VerifyChunk(i, payload)
			}, nil)
		lo += want.N()
	}
	report, err := finish(ctx, jobs)
	if err != nil {
		return nil, grid.Dims{}, report, err
	}
	return out, dims, report, nil
}
