package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"time"

	"fzmod"
	"fzmod/internal/core"
	"fzmod/internal/kernels/dispatch"
	"fzmod/internal/predictor/lorenzo"
	"fzmod/internal/stf"
)

// productStats accumulates what the product's own reports and counters say
// about the untraced ops of a traced run.
type productStats struct {
	ms     map[string]samples // op kind → latency
	allocs map[string]samples // op kind → heap allocations per op
	busy   map[string]samples // op kind → sum of the op's STF task durations
	gaps   map[string]samples // op kind → op time during which no task ran
	lanes  int                // distinct (place, worker) pairs the last compress ran on
	ops    int
	pool   fzmod.PoolStats
	launch int64
	xfer   int64
}

func newProductStats() *productStats {
	return &productStats{ms: map[string]samples{}, allocs: map[string]samples{}, busy: map[string]samples{}, gaps: map[string]samples{}}
}

// measure runs one product op, recording its latency, allocation count, the
// platform-counter deltas it caused and, from its ExecReport, how long its
// tasks ran and how much of the op no task covered.
func (s *productStats) measure(p *fzmod.Platform, kind string, op func() (*fzmod.ExecReport, error)) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := fzmod.Stats(p)
	t := time.Now()
	rep, err := op()
	d := time.Since(t)
	s1 := fzmod.Stats(p)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	s.ms[kind] = append(s.ms[kind], ms(d))
	s.allocs[kind] = append(s.allocs[kind], float64(m1.Mallocs-m0.Mallocs))
	busy, covered, lanes := taskTime(rep.Trace)
	s.busy[kind] = append(s.busy[kind], busy)
	s.gaps[kind] = append(s.gaps[kind], ms(d)-covered)
	if kind == "compress" {
		s.lanes = lanes
	}
	s.ops++
	s.pool.Gets += s1.Pool.Gets - s0.Pool.Gets
	s.pool.Hits += s1.Pool.Hits - s0.Pool.Hits
	s.launch += s1.KernelLaunches + s1.HostLaunches - s0.KernelLaunches - s0.HostLaunches
	s.xfer += s1.BytesH2D + s1.BytesD2H - s0.BytesH2D - s0.BytesD2H
	return nil
}

// taskTime summarises an STF trace (ordered by start): the sum of the task
// durations, the length of the union of their intervals — tasks at different
// places overlap even at Workers=1 — and the number of lanes they ran on.
func taskTime(trace []stf.TaskTrace) (busy, covered float64, lanes int) {
	seen := map[string]bool{}
	var end time.Time
	for _, t := range trace {
		busy += ms(t.End.Sub(t.Start))
		switch {
		case t.Start.After(end):
			covered += ms(t.End.Sub(t.Start))
			end = t.End
		case t.End.After(end):
			covered += ms(t.End.Sub(end))
			end = t.End
		}
		seen[fmt.Sprint(t.Place, t.Worker)] = true
	}
	return busy, covered, len(seen)
}

// report writes the device.* metrics: platform-counter traffic per product op.
func (s *productStats) report(m metrics) {
	ops := float64(s.ops)
	m.set("device.pool_gets_per_op", div(float64(s.pool.Gets), ops), "count")
	m.set("device.pool_hit_rate", s.pool.HitRate(), "ratio")
	m.set("device.launches_per_op", div(float64(s.launch), ops), "count")
	m.set("device.sim_transfer_bytes_per_op", div(float64(s.xfer), ops), "bytes")
}

// traced is the traced run of a field workload: rounds of one product op and
// one staged-replay op per operation kind until the budget is spent, after a
// fixed set of extra phases (warm region reads, streaming, full-width ops,
// kernel rates). It reports the per-layer metrics.
func (e *fieldEnv) traced(lim limits, tr *tracer, quick bool) (metrics, int, int) {
	m := metrics{}
	attempted, failed := 0, 0
	count := func(name string, err error) bool {
		attempted++
		if err != nil {
			failed++
			logf("%s: %v", name, err)
		}
		return err == nil
	}
	r, err := newReplayer(e, tr)
	if !count("replay", err) {
		return m, attempted, failed
	}
	start := time.Now()

	warm := e.warmRegion(m, quick)
	stream := e.streamPhases(m, quick)
	wide := e.widePhases(quick)
	e.kernelRates(m, r)
	a, f := tally(append(append(warm, stream...), wide...)...)
	attempted, failed = attempted+a, failed+f

	ps := newProductStats()
	var tasks, critical, regionDecoded int
	for i := 0; lim.more(i, start); i++ {
		sel := e.sels[i%len(e.sels)]
		count("compress", ps.measure(e.p, "compress", func() (*fzmod.ExecReport, error) {
			blob, rep, err := compressChunked(e.p, e.pl, e.data, e.dims, e.eb, e.chunkElems, fieldWorkers)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(blob, e.blob) {
				return nil, errors.New("container bytes differ from the first iteration's")
			}
			tasks, critical = rep.Tasks, rep.CriticalPath
			return rep, nil
		}))
		count("decompress", ps.measure(e.p, "decompress", func() (*fzmod.ExecReport, error) {
			vals, _, rep, err := decompress(e.p, e.blob, fieldWorkers)
			if err == nil && crc32.ChecksumIEEE(f32bytes(vals)) != e.refCRC {
				err = errors.New("output CRC differs from the first iteration's")
			}
			return rep, err
		}))
		count("region", ps.measure(e.p, "region", func() (*fzmod.ExecReport, error) {
			vals, rep, err := readRegion(e.region, sel)
			if err != nil {
				return nil, err
			}
			regionDecoded = rep.Region.Decoded
			return rep, e.checkWindow(sel, vals)
		}))
		count("replay compress", r.compress())
		count("replay decompress", r.decompress())
		count("replay region open", r.regionOpen())
		count("replay region", r.region(sel))
	}

	comp, dec := ps.ms["compress"].median(), ps.ms["decompress"].median()
	layer := func(metricName, kind, key string) { m.set(metricName, tr.layerMedian(kind, key), "ms") }
	layer("preprocess.resolve_ms", "compress", "preprocess.resolve")
	layer("lorenzo.encode_ms", "compress", "lorenzo.encode")
	layer("lorenzo.decode_ms", "decompress", "lorenzo.decode")
	layer("spline.encode_ms", "compress", "spline.encode")
	layer("spline.decode_ms", "decompress", "spline.decode")
	layer("histogram.standard_ms", "compress", "histogram.standard")
	layer("histogram.topk_ms", "compress", "histogram.topk")
	layer("huffman.build_ms", "compress", "huffman.build")
	layer("huffman.encode_ms", "compress", "huffman.encode")
	layer("huffman.decode_ms", "decompress", "huffman.decode")
	layer("fzg.encode_ms", "compress", "fzg.encode")
	layer("fzg.decode_ms", "decompress", "fzg.decode")
	layer("fzio.marshal_ms", "compress", "fzio.marshal")
	layer("fzio.assemble_ms", "compress", "fzio.assemble")
	layer("fzio.crc32_ms", "compress", "fzio.crc32")
	layer("fzio.leafhash_ms", "compress", "fzio.leafhash")
	layer("fzio.unmarshal_ms", "decompress", "fzio.unmarshal")
	layer("fzio.fetch_index_ms", "region_open", "fzio.fetch_index")
	layer("fzio.verify_proof_ms", "region", "fzio.verify_proof")

	share := float64(r.outliers) / float64(e.dims.N())
	bits := 8 * float64(r.codeBytes) / float64(e.dims.N())
	switch e.pl.Pred.(type) {
	case core.LorenzoPredictor:
		m.set("lorenzo.outlier_share", share, "ratio")
	case core.SplinePredictor:
		m.set("spline.outlier_share", share, "ratio")
	}
	switch e.pl.Enc.(type) {
	case core.HuffmanEncoder:
		m.set("huffman.bits_per_code", bits, "bits")
	case core.FZGEncoder:
		m.set("fzg.bits_per_code", bits, "bits")
	}
	m.set("fzio.fetch_reads", float64(r.fetchReads), "count")
	m.set("fzio.fetch_bytes", float64(r.fetchLen), "bytes")
	m.set("fzio.overhead_bytes", float64(r.overheadBytes), "bytes")

	// Self time is the part of the product op no STF task covers: graph build,
	// scheduling gaps, result allocation and, on compress, the bound resolution
	// that runs before the graph (preprocess.resolve_ms). Coverage is what the
	// staged layer calls take over what the product's tasks take: near 1 when
	// the replay is the same work. Task time, not wall time, is the base
	// because the hybrid presets overlap their accelerator and host lanes even
	// at Workers=1.
	resolve := tr.layerMedian("compress", "preprocess.resolve")
	m.set("core.compress_self_ms", ps.gaps["compress"].median(), "ms")
	m.set("core.decompress_self_ms", ps.gaps["decompress"].median(), "ms")
	m.set("core.region_self_ms", ps.gaps["region"].median(), "ms")
	m.set("core.compress_coverage", div(tr.layerSum("compress"), ps.busy["compress"].median()+resolve), "ratio")
	m.set("core.decompress_coverage", div(tr.layerSum("decompress"), ps.busy["decompress"].median()), "ratio")
	if comp > 0 {
		m.set("trace.overhead_pct", 100*(tr.opMedian("compress")/comp-1), "%")
	}
	m.set("stf.compress_speedup_wmax", div(comp, wide[0].ms.median()), "ratio")
	m.set("stf.decompress_speedup_wmax", div(dec, wide[1].ms.median()), "ratio")
	m.set("core.stream_over_chunked", div(stream[0].ms.median(), comp), "ratio")
	m.set("core.region_chunks_decoded", float64(regionDecoded), "count")
	m.set("core.allocs_per_compress", ps.allocs["compress"].median(), "count")
	m.set("core.allocs_per_decompress", ps.allocs["decompress"].median(), "count")
	m.set("stf.tasks", float64(tasks), "count")
	m.set("stf.critical_path", float64(critical), "count")
	m.set("stf.busy_ms", ps.busy["compress"].median(), "ms")
	m.set("stf.idle_share", 1-div(ps.busy["compress"].median(), comp*float64(ps.lanes)), "ratio")
	ps.report(m)
	return m, attempted, failed
}

// warmRegion reads scheduled selections through a 256 MiB slab cache: the
// first reads fill it and are discarded, the rest are pure cache copies.
func (e *fieldEnv) warmRegion(m metrics, quick bool) []*phase {
	discard, reads := warmDiscard, warmReads
	if quick {
		discard, reads = 4, 8
	}
	cache := fzmod.NewSlabCache(256 << 20)
	r, err := openRegion(e.p, e.blob, cache, fieldWorkers)
	if err != nil {
		logf("warm region: %v", err)
		return []*phase{{attempted: 1, failed: 1}}
	}
	fill := runOps("region fill", discard, func(i int) (time.Duration, error) { return e.regionRead(r, "region-warm", i) })
	before := cache.Stats()
	warm := runOps("region warm", reads, func(i int) (time.Duration, error) { return e.regionRead(r, "region-warm", i) })
	after := cache.Stats()
	m["core.region_warm_p50_ms"] = warm.ms.timing("ms", nil)
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	m.set("core.region_cache_hit_rate", div(float64(hits), float64(hits+misses)), "ratio")
	return []*phase{fill, warm}
}

// streamPhases pushes the field through the io.Reader/io.Writer entry points
// (Window=2) and checks the result like the in-memory phases.
func (e *fieldEnv) streamPhases(m metrics, quick bool) []*phase {
	n := extraOps
	if quick {
		n = 2
	}
	raw := f32bytes(e.data)
	var first []byte
	comp := runOps("stream compress", n, func(int) (time.Duration, error) {
		out := bytes.NewBuffer(make([]byte, 0, len(e.blob)+len(e.blob)/8))
		t := time.Now()
		_, err := streamCompress(e.p, e.pl, bytes.NewReader(raw), e.dims, e.absEB, out, e.chunkElems, fieldWorkers)
		d := time.Since(t)
		if err == nil && first == nil {
			first = out.Bytes()
		}
		if err == nil && !bytes.Equal(out.Bytes(), first) {
			err = errors.New("stream container bytes differ from the first iteration's")
		}
		return d, err
	})
	if first == nil {
		return []*phase{comp}
	}
	dec := runOps("stream decompress", n, func(int) (time.Duration, error) {
		out := bytes.NewBuffer(make([]byte, 0, len(raw)))
		t := time.Now()
		_, err := streamDecompress(e.p, bytes.NewReader(first), out, fieldWorkers)
		d := time.Since(t)
		// The stream resolves the same absolute bound, so its chunks — and the
		// reconstruction — are bit-identical to the chunked path's.
		if err == nil && crc32.ChecksumIEEE(out.Bytes()) != e.refCRC {
			err = errors.New("stream output CRC differs from the chunked reconstruction's")
		}
		return d, err
	})
	m["core.stream_compress_gbs"] = comp.ms.timing("GB/s", gbs(len(raw)))
	m["core.stream_decompress_gbs"] = dec.ms.timing("GB/s", gbs(len(raw)))
	return []*phase{comp, dec}
}

// widePhases runs compress and decompress at Workers = nproc, for the
// w1 ÷ w=nproc speedups.
func (e *fieldEnv) widePhases(quick bool) []*phase {
	n := extraOps
	if quick {
		n = 2
	}
	w := runtime.NumCPU()
	comp := runOps("compress wmax", n, func(int) (time.Duration, error) {
		t := time.Now()
		blob, _, err := compressChunked(e.p, e.pl, e.data, e.dims, e.eb, e.chunkElems, w)
		d := time.Since(t)
		if err == nil && !bytes.Equal(blob, e.blob) {
			err = errors.New("container bytes differ across worker budgets")
		}
		return d, err
	})
	dec := runOps("decompress wmax", n, func(int) (time.Duration, error) {
		t := time.Now()
		vals, _, _, err := decompress(e.p, e.blob, w)
		d := time.Since(t)
		if err == nil && crc32.ChecksumIEEE(f32bytes(vals)) != e.refCRC {
			err = errors.New("output CRC differs across worker budgets")
		}
		return d, err
	})
	return []*phase{comp, dec}
}

// kernelRates times the dispatched hot-loop kernels on the workload's own
// field and reports computed bytes (array sizes, cache misses ignored) over
// time. Only the kernels the workload's pipeline runs are reported.
func (e *fieldEnv) kernelRates(m metrics, r *replayer) {
	best := func(bytes int, f func()) float64 {
		var s samples
		for i := 0; i < extraOps; i++ {
			t := time.Now()
			f()
			s = append(s, ms(time.Since(t)))
		}
		return gbs(bytes)(s.median())
	}
	n := e.dims.N()
	m.set("kernels.minmax_gbs", best(4*n, func() {
		mn, mx := dispatch.MinMaxF32(e.data)
		sink += uint32(mn + mx)
	}), "GB/s")
	pr, ok := e.pl.Pred.(core.LorenzoPredictor)
	if !ok {
		return
	}
	q := make([]int32, n)
	scale := 1 / (2 * e.absEB)
	m.set("kernels.quantize_gbs", best(8*n, func() {
		if !dispatch.QuantizeF32(e.data, q, scale, 1<<29) {
			sink++
		}
	}), "GB/s")
	radius := pr.Radius
	if radius <= 0 {
		radius = lorenzo.DefaultRadius
	}
	codes := make([]uint16, n)
	rows, read := diffCodes(e.dims, q, codes, int32(radius), false)
	m.set("kernels.diffcodes_gbs", best(rows*read, func() { diffCodes(e.dims, q, codes, int32(radius), true) }), "GB/s")
	if _, ok := e.pl.Enc.(core.HuffmanEncoder); ok {
		tabs := make([]uint32, 4*2*radius)
		m.set("kernels.histaccum_gbs", best(2*n, func() {
			clear(tabs)
			if !dispatch.HistAccum(tabs, codes, 2*radius) {
				sink++
			}
		}), "GB/s")
	}
}

// diffCodes runs the rank's Lorenzo residual kernel over every interior row
// of the lattice q and returns the row count and the bytes one row touches.
func diffCodes(d fzmod.Dims, q []int32, codes []uint16, r32 int32, run bool) (rows, rowBytes int) {
	nx := d.X
	switch d.Rank() {
	case 3:
		rows, rowBytes = (d.Y-1)*(d.Z-1), 4*4*nx+2*(nx-1)
		for z := 1; run && z < d.Z; z++ {
			for y := 1; y < d.Y; y++ {
				o := d.Idx(0, y, z)
				dispatch.DiffCodes3(q[o:o+nx], q[o-nx:o], q[o-nx*d.Y:o-nx*d.Y+nx], q[o-nx*d.Y-nx:o-nx*d.Y], codes[o+1:o+nx], r32)
			}
		}
	case 2:
		rows, rowBytes = d.Y-1, 2*4*nx+2*(nx-1)
		for y := 1; run && y < d.Y; y++ {
			o := y * nx
			dispatch.DiffCodes2(q[o:o+nx], q[o-nx:o], codes[o+1:o+nx], r32)
		}
	default:
		rows, rowBytes = 1, 4*nx+2*(nx-1)
		if run {
			dispatch.DiffCodes1(q, codes[1:], r32)
		}
	}
	return rows, rowBytes
}
