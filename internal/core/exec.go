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
// scheduler executes it over per-place work-stealing worker pools with
// pooled scratch buffers.
//
// Write side: predict → encode per block (addPredictEncodeTasks), then
// stage (→ secondary) where the sink needs the block's bytes staged
// (addStageTasks). The in-memory lowering (chunked.go) joins the blocks
// with a layout task and scatter-writes them into the FZMD or FZMC output;
// the streaming lowering (stream.go) flushes each staged block as an FZMS
// frame.
//
// Read side: addDecompressTasks is the only place a chunk payload is
// parsed, secondary-unwrapped, decoded, dims-checked and reconstructed.
// Full decompress, region reads, salvage and stream decode each plan their
// chunk list, hand every chunk to the builder with a fetch closure that
// returns integrity-checked bytes, and finalize — so a hostile payload
// meets the same checks whichever door it comes through. There is no
// other executor: a monolithic (FZMD) container is simply a one-chunk
// graph.
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

// execReport assembles the report for a finalized context.
func execReport(ctx *stf.Ctx) *ExecReport {
	trace := ctx.Trace()
	return &ExecReport{
		Trace:        trace,
		DOT:          ctx.DOT(),
		Tasks:        len(trace),
		CriticalPath: ctx.CriticalPath(),
		Pool:         ctx.Platform().ScratchPool().Stats(),
		Kernels:      ctx.Platform().KernelImpl(),
		KernelDetail: ctx.Platform().KernelDetail(),
	}
}

// finish drains the graph, snapshots its report and retires the context's
// workers.
func finish(ctx *stf.Ctx) (*ExecReport, error) {
	err := ctx.Finalize()
	report := execReport(ctx)
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
	// blob is the chunk's staged serialized form, set only when the
	// sub-graph includes addStageTasks.
	blob []byte
	// tok is written by the last task declared for the job so far; a
	// consumer reading it runs once the job's size (and blob, if staged)
	// is final.
	tok *stf.Token
	// codesSlab is the pooled quantization-code buffer when the pipeline's
	// predictor supports PredictInto; the encode task returns it to the
	// pool once the code stream has been consumed.
	codesSlab *device.Slab[uint16]
	// blobSlab backs the stage task's output: recycled by the secondary
	// task once the inner blob is wrapped, or by the streaming path after
	// the frame is flushed.
	blobSlab *device.Slab[byte]
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
// sweep after Finalize/Reset reports an error, or the checkout leaks and
// the pool's gets==puts accounting breaks. Safe only once the graph is
// drained (no task body can still touch the job).
func (job *compressJob) releaseSlabs(bp *device.BufPool) {
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
}

// sweepJobs releaseSlabs-es every declared job after a failed graph.
func sweepJobs(bp *device.BufPool, jobs []*compressJob) {
	for _, job := range jobs {
		if job != nil {
			job.releaseSlabs(bp)
		}
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
			var (
				pred *Prediction
				err  error
			)
			if pi, ok := pl.Pred.(PredictorInto); ok {
				// Pooled codes drawn through the worker's shard: the slab is
				// recycled by the encode task, so a many-chunk run reuses a
				// window's worth of code buffers instead of allocating
				// 2 bytes per field element.
				job.codesSlab = ti.Shard().GetU16(dims.N(), false)
				pred, err = pi.PredictInto(p, ti.Place(), data, dims, absEB, job.codesSlab.Data)
			} else {
				pred, err = pl.Pred.Predict(p, ti.Place(), data, dims, absEB)
			}
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
				if job.codesSlab != nil {
					ti.Shard().PutU16(job.codesSlab)
					job.codesSlab = nil
					job.pred.Codes = nil
				}
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
// the serialized blob.
func (pl *Pipeline) addStageTasks(ctx *stf.Ctx, prefix string, job *compressJob) {
	p := ctx.Platform()
	blobTok := stf.NewToken(ctx, prefix+"blob")

	ctx.Task(prefix + "stage").On(device.Host).Reads(job.tok).Writes(blobTok).
		Do(func(ti *stf.TaskInstance) error {
			job.blobSlab = ti.Shard().GetBytes(job.inner.MarshaledSize(), false)
			n, err := job.inner.MarshalInto(job.blobSlab.Data)
			if err != nil {
				return err
			}
			job.blob = job.blobSlab.Data[:n]
			return nil
		})
	job.tok = blobTok

	if pl.Sec != nil {
		ctx.Task(prefix + "secondary").On(pl.EncPlace).ReadsWrites(blobTok).
			Do(func(ti *stf.TaskInstance) error {
				blob, err := pl.wrapSecondary(p, ti.Place(), job.blob, job.inner.Header)
				if err != nil {
					return err
				}
				// The inner blob is dead once wrapped; recycle its slab.
				ti.Shard().PutBytes(job.blobSlab)
				job.blobSlab = nil
				job.blob = blob
				return nil
			})
	}
}

// addCompressTasks declares one block's sub-graph up to the point its final
// serialized size is known, for the in-memory sinks: predict → encode, plus
// stage → secondary for pipelines with a secondary encoder, whose
// output size only exists once that pass has run. Consumers read job.tok
// and see the block through size/writeInto.
func (pl *Pipeline) addCompressTasks(ctx *stf.Ctx, prefix string, data []float32, dims grid.Dims, absEB, relEB float64) *compressJob {
	job := pl.addPredictEncodeTasks(ctx, prefix, data, dims, absEB, relEB)
	if pl.Sec != nil {
		pl.addStageTasks(ctx, prefix, job)
	}
	return job
}

// decompressJob carries one container's decode state through its task
// chain; sizes and module identities only become known as tasks execute.
type decompressJob struct {
	c    *fzio.Container
	pr   Predictor
	pred *Prediction
	vals []float32
	// dst, when set, is the destination slice reconstruction writes into —
	// directly for predictors supporting ReconstructInto (the chunked path
	// points it at the chunk's window of the assembled output field).
	dst []float32
}

// decode resolves the container's modules and decodes the primary code
// stream (at the accelerator place, as the presets assign it), populating
// the job for reconstruction.
func (job *decompressJob) decode(p *device.Platform) error {
	pr, enc, err := containerModules(job.c)
	if err != nil {
		return err
	}
	payload, err := job.c.Segment(segCodes)
	if err != nil {
		return err
	}
	codes, err := enc.DecodeCodes(p, device.Accel, payload)
	if err != nil {
		return fmt.Errorf("core: %s decode: %w", enc.Name(), err)
	}
	if dims := job.c.Header.Dims; len(codes) != dims.N() {
		return fmt.Errorf("core: %d codes for dims %v", len(codes), dims)
	}
	job.pr = pr
	job.pred = containerPrediction(job.c, codes)
	return nil
}

// reconstruct inverts the prediction stage; with job.dst set the values
// land there, in place when the predictor supports it.
func (job *decompressJob) reconstruct(p *device.Platform) error {
	dims, eb := job.c.Header.Dims, job.c.Header.EB
	if ri, ok := job.pr.(ReconstructorInto); ok && job.dst != nil {
		if err := ri.ReconstructInto(p, device.Accel, job.pred, dims, eb, job.dst); err != nil {
			return fmt.Errorf("core: %s reconstruct: %w", job.pr.Name(), err)
		}
		job.vals = job.dst
		return nil
	}
	vals, err := job.pr.Reconstruct(p, device.Accel, job.pred, dims, eb)
	if err != nil {
		return fmt.Errorf("core: %s reconstruct: %w", job.pr.Name(), err)
	}
	if job.dst != nil {
		copy(job.dst, vals)
		vals = job.dst
	}
	job.vals = vals
	return nil
}

// addDecompressTasks declares one chunk's read sub-graph, fetch → decode →
// reconstruct, and is the single place a chunk payload is parsed and
// decoded — every read path lowers onto it, so they enforce the same
// checks. chunk is the payload's index in its container (for errors) and
// want the geometry the container's chunk table assigns it.
//
// fetch runs in the Host-place task (it may block on I/O) and returns the
// payload bytes with the container-level integrity checks — chunk CRC,
// Merkle proof — already applied; a nil payload with a nil error means the
// chunk was served some other way, and the sub-graph skips straight to
// after. The payload must be a plain FZMD container (a nested FZMC or FZMS
// would recurse without bound), optionally secondary-wrapped, recording
// exactly want. The values are reconstructed into dst (len want.N()) when
// it is non-nil, else into a fresh slice; after, when non-nil, then runs
// with them (nil for a skipped chunk) inside the reconstruct task.
func addDecompressTasks(ctx *stf.Ctx, prefix string, chunk int, want grid.Dims, dst []float32,
	fetch func() ([]byte, error), after func(vals []float32) error) {
	p := ctx.Platform()
	job := &decompressJob{dst: dst}
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
	ctx.Task(prefix + "decode").On(device.Accel).Reads(fetchTok).Writes(codesTok).
		Do(func(ti *stf.TaskInstance) error {
			if job.c == nil {
				return nil
			}
			return job.decode(p)
		})
	ctx.Task(prefix + "reconstruct").On(device.Accel).Reads(codesTok).
		Do(func(ti *stf.TaskInstance) error {
			if job.c != nil {
				if err := job.reconstruct(p); err != nil {
					return err
				}
			}
			if after == nil {
				return nil
			}
			return after(job.vals)
		})
}

// decompressReport lowers a whole-container decode onto one read sub-graph
// per entry of the container's chunk index — the same fzio.FetchIndex a
// region read plans against, so FZMD, FZMC and FZMS blobs all take this
// path — each reconstructing into its window of the output field; the
// chunks share no token, so they decode fully in parallel. An FZMD
// blob is a one-entry index covering every plane (its integrity is the
// per-segment CRCs the builder's parse verifies); FZMC and FZMS payloads
// are CRC-checked against the index as they are fetched.
func decompressReport(gctx context.Context, p *device.Platform, blob []byte, workers int) ([]float32, grid.Dims, *ExecReport, error) {
	ix, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob))
	if err != nil {
		return nil, grid.Dims{}, nil, err
	}
	dims := ix.Header.Dims
	out := make([]float32, dims.N())
	ctx := newCtx(gctx, p, device.Accel, workers, len(ix.Chunks))
	lo := 0
	for i, ref := range ix.Chunks {
		i, ref := i, ref
		want := dims.WithSlowExtent(ref.Planes)
		addDecompressTasks(ctx, chunkPrefix(i), i, want, out[lo:lo+want.N()],
			func() ([]byte, error) {
				payload := blob[ref.Offset : ref.Offset+ref.Length]
				return payload, ix.VerifyChunk(i, payload)
			}, nil)
		lo += want.N()
	}
	report, err := finish(ctx)
	if err != nil {
		return nil, grid.Dims{}, report, err
	}
	return out, dims, report, nil
}
