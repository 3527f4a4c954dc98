package core

import (
	"context"
	"fmt"
	"sync/atomic"

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
// worker of its own place runs next, so a chunk's stages on one lane run
// back to back, and other ready stages wait in declaration order. Both
// sides use both lanes at any budget: compress predicts on the accel lane
// while the host lane encodes, decompress decodes on the host lane while
// the accel lane allocates and reconstructs.
//
// Write side: predict → encode per block (addPredictEncodeTasks), then
// stage (→ secondary) where the sink needs the block's bytes staged
// (addStageTasks). The in-memory lowering (chunked.go) joins the blocks
// with a layout task and scatter-writes them into the FZMD or FZMC output;
// the streaming lowering (stream.go) keeps declaring blocks into one graph
// as a sliding window and flushes each staged block as an FZMS frame.
//
// Read side: addDecompressTasks is the only place a chunk payload is
// parsed, secondary-unwrapped, decoded, dims-checked and reconstructed,
// and readChunks is the one executor over it: full decompress, region
// reads and salvage only plan a chunk list and a per-chunk fetch, and
// every payload passes fzio.ContainerIndex.VerifyChunk before it decodes.
// Its graph's first task, alloc, makes the destinations every reconstruct
// writes.
// The stream door, which cannot plan past the frames it has read,
// declares the same sub-graph from its sliding window. A monolithic (FZMD)
// container is simply a one-chunk graph.
//
// Modules write into buffers the executor owns: predict and decode fill a
// pooled code slab, reconstruct fills the destination alloc made (or the
// stream door's pooled slab). A failed or canceled graph skips the task
// that returns a slab, so every door sweeps its jobs once the graph has
// drained.
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
	// Region carries the chunk, fetch and slab-cache accounting of every
	// index-planned read: Decompress and region reads (nil for compress).
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
// exactly want. The values are reconstructed into *dst (len want.N(), any
// contents), read when the reconstruct task runs; when alloc is non-nil
// that task reads it too, so a destination the graph allocates exists by
// then. after, when non-nil, then runs with the values (nil for a skipped
// chunk) inside the reconstruct task. The returned
// job's pooled slabs are the caller's to sweep once the graph has drained.
func addDecompressTasks(ctx *stf.Ctx, prefix string, chunk int, want grid.Dims, dst *[]float32,
	alloc *stf.Token, fetch func() ([]byte, error), after func(vals []float32) error) *decompressJob {
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
	// The primary code stream decodes on the host lane, into a slab of
	// exactly want.N() codes, and the values reconstruct on the accel lane:
	// like compress's predict ∥ encode, chunk i+1's fetch → decode overlaps
	// chunk i's reconstruct at any budget. The presets place only the write
	// side.
	ctx.Task(prefix + "decode").On(device.Host).Reads(fetchTok).Writes(codesTok).
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
	rec := ctx.Task(prefix + "reconstruct").On(device.Accel).Reads(codesTok)
	if alloc != nil {
		rec.Reads(alloc)
	}
	job.done = rec.Do(func(ti *stf.TaskInstance) error {
		var vals []float32
		if job.c != nil {
			vals = *dst
			codes := job.codes
			job.codes = nil
			defer p.ScratchPool().PutU16(codes)
			pred := containerPrediction(job.c, codes.Data)
			if err := job.pr.Reconstruct(p, ti.Place(), pred, want, job.c.Header.EB, vals); err != nil {
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

// chunkRead is one chunk a read decodes: its index in the container's
// chunk table and the plane range its slab covers.
type chunkRead struct {
	chunk  int
	lo     int // first plane the slab covers
	planes int
}

// planChunks lists the chunks of ix whose slab intersects planes [s0, s1)
// of the slowest dimension. FetchIndex has checked that the chunks tile it.
func planChunks(ix *fzio.ContainerIndex, s0, s1 int) []chunkRead {
	var reads []chunkRead
	lo := 0
	for i, ref := range ix.Chunks {
		if lo < s1 && lo+ref.Planes > s0 {
			reads = append(reads, chunkRead{chunk: i, lo: lo, planes: ref.Planes})
		}
		lo += ref.Planes
	}
	return reads
}

// chunkReads is one planned read for readChunks: the chunks, where their
// payloads come from, and where their values land.
type chunkReads struct {
	// ix accepts every fetched payload (VerifyChunk); nil when fetch
	// returns payloads the survey has already accepted under the same rule.
	ix     *fzio.ContainerIndex
	fetch  func(chunk int) ([]byte, error) // may block on I/O
	chunks []chunkRead
	dims   grid.Dims // the field's full geometry
	sel    RegionSel // the subvolume out holds
	out    []float32 // sel.Dims().N() values; nil leaves them to readChunks' alloc task
	cache  *SlabCache
	hits   int // chunks the planner served from cache
}

// readChunks is the one read executor: it declares each planned chunk's
// sub-graph (named by chunkPrefix) in one context and drains it. Without a
// cache, a chunk of whole selected planes decodes straight into its window
// of out. Any other decodes into a slab of its own, whose overlap window is
// copied out; a cache single-flights that slab around the fetch (a waiter
// blocks in the Host-place fetch task) and publishes it to every waiter.
//
// The destinations are the graph's first task, alloc, on the accel lane:
// it makes out when the door left it nil, and every chunk's own slab, and
// every reconstruct reads its token. So at any budget the accel lane
// allocates while the host lane fetches, verifies and decodes the first
// chunks, and a graph canceled before alloc runs allocates nothing.
func readChunks(gctx context.Context, p *device.Platform, workers int, rd *chunkReads) (*ExecReport, error) {
	cache, dims, sel := rd.cache, rd.dims, rd.sel
	stats := &RegionStats{Sel: sel, Chunks: rd.hits + len(rd.chunks), CacheHits: rd.hits}
	if cache != nil {
		defer func() { stats.Cache = cache.Stats() }()
	}
	if len(rd.chunks) == 0 {
		return &ExecReport{Region: stats}, nil
	}
	s0, s1 := sel.slowRange(dims)
	// A selection inside the field spans its fast axes exactly when it
	// holds whole planes.
	direct := cache == nil && sel.Dims().N() == (s1-s0)*dims.PlaneElems()
	inPlace := func(c chunkRead) bool { return direct && c.lo >= s0 && c.lo+c.planes <= s1 }
	ctx := newCtx(gctx, p, device.Accel, workers, len(rd.chunks))
	// dsts[i] is chunk i's destination: its window of out, or a slab of its
	// own. Plain allocations: a slab may outlive the ctx in the cache.
	dsts := make([][]float32, len(rd.chunks))
	allocTok := stf.NewToken(ctx, "alloc")
	ctx.Task("alloc").On(device.Accel).Writes(allocTok).Do(func(*stf.TaskInstance) error {
		if rd.out == nil {
			rd.out = make([]float32, sel.Dims().N())
		}
		for i, c := range rd.chunks {
			n := dims.WithSlowExtent(c.planes).N()
			if inPlace(c) {
				o := (c.lo - s0) * dims.PlaneElems()
				dsts[i] = rd.out[o : o+n]
			} else {
				dsts[i] = make([]float32, n)
			}
		}
		return nil
	})
	// flights[i] is the single-flight chunk i leads, once its fetch task has
	// claimed one.
	flights := make([]*slabFlight, len(rd.chunks))
	jobs := make([]*decompressJob, len(rd.chunks))
	var dedup, payloadBytes, proofs atomic.Int64

	for i, c := range rd.chunks {
		i, c := i, c
		want := dims.WithSlowExtent(c.planes)
		fetch := func() ([]byte, error) {
			payload, err := rd.fetch(c.chunk)
			if err == nil && rd.ix != nil {
				payloadBytes.Add(int64(len(payload)))
				if err = rd.ix.VerifyChunk(c.chunk, payload); err == nil && rd.ix.HasProofs() {
					proofs.Add(1)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("core: fetching chunk %d: %w", c.chunk, err)
			}
			return payload, nil
		}
		if inPlace(c) {
			jobs[i] = addDecompressTasks(ctx, chunkPrefix(c.chunk), c.chunk, want, &dsts[i], allocTok, fetch, nil)
			continue
		}
		var shared []float32 // the slab another reader's flight delivered, if any
		cached := func() ([]byte, error) {
			if cache != nil {
				var err error
				if shared, flights[i], err = cache.await(ctx.Context(), slabKey{rd.ix.Key, c.chunk}); err != nil {
					return nil, err
				}
				if shared != nil {
					cache.dedup.Add(1)
					dedup.Add(1)
					return nil, nil
				}
			}
			return fetch()
		}
		after := func(vals []float32) error {
			if shared != nil {
				vals = shared
			} else if cache != nil {
				cache.finish(slabKey{rd.ix.Key, c.chunk}, flights[i], vals, nil)
			}
			copyWindow(rd.out, sel, dims, vals, c.lo, c.planes)
			return nil
		}
		jobs[i] = addDecompressTasks(ctx, chunkPrefix(c.chunk), c.chunk, want, &dsts[i], allocTok, cached, after)
	}

	report, err := finish(ctx, jobs)
	// Flights this read still leads — its tasks failed, were canceled, or
	// never dispatched — must complete with the graph's error, or waiters
	// (and every future joiner) would hang on an abandoned flight.
	for i, fl := range flights {
		if fl != nil {
			ferr := err
			if ferr == nil {
				ferr = fmt.Errorf("core: chunk decode abandoned")
			}
			cache.finish(slabKey{rd.ix.Key, rd.chunks[i].chunk}, fl, nil, ferr)
		}
	}
	stats.DedupHits = int(dedup.Load())
	stats.Decoded = len(rd.chunks) - stats.DedupHits
	stats.PayloadBytes = payloadBytes.Load()
	stats.ProofVerified = proofs.Load()
	report.Region = stats
	return report, err
}

// DecompressReportWithOptsCtx reconstructs a field from any FZModules
// container using the module table. It plans every entry of the chunk
// index (fzio.FetchIndex: FZMD, FZMC and FZMS alike) for readChunks and
// fetches by slicing blob, with no copy and no fetch limit on an in-memory
// FZMD; the chunks decode in parallel straight into their windows of the
// output, which the graph allocates. Every payload passes
// fzio.ContainerIndex.VerifyChunk first.
// opts.Workers is the parallelism budget; a cancellation or deadline on
// gctx abandons unstarted task bodies at their dispatch boundary and
// returns the context's error.
func DecompressReportWithOptsCtx(gctx context.Context, p *device.Platform, blob []byte, opts DecompressOpts) ([]float32, grid.Dims, *ExecReport, error) {
	ix, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob))
	if err != nil {
		return nil, grid.Dims{}, nil, err
	}
	dims := ix.Header.Dims
	rd := &chunkReads{
		ix: ix,
		fetch: func(i int) ([]byte, error) {
			ref := ix.Chunks[i]
			return blob[ref.Offset : ref.Offset+ref.Length], nil
		},
		chunks: planChunks(ix, 0, dims.SlowExtent()), dims: dims, sel: FullRegion(dims),
	}
	report, err := readChunks(gctx, p, opts.Workers, rd)
	if err != nil {
		return nil, grid.Dims{}, report, err
	}
	return rd.out, dims, report, nil
}
