package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"fzmod"
	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
)

// fieldEnv is a set-up field workload: the generated field, a warm platform,
// and the first iteration's outputs, which every later iteration is checked
// against.
type fieldEnv struct {
	dims       grid.Dims
	p          *fzmod.Platform
	pl         *fzmod.Pipeline
	eb         fzmod.ErrorBound
	absEB      float64 // eb resolved by the benchmark, for the bound checks
	chunkElems int
	data       []float32

	blob   []byte    // first container
	ref    []float32 // first reconstruction
	refCRC uint32

	small     []float32 // corner block of data, below the auto-chunk threshold
	smallDims grid.Dims
	smallBlob []byte

	region *fzmod.Region // cold: no slab cache
	sels   []fzmod.RegionSel

	// fault, when set (tests only), may damage a result before it is checked.
	fault func(phase string, i int, out []float32)
}

// setupField is one set-up cycle: generate the field from the seed, build the
// platform and pipeline, produce the reference container and reconstruction,
// open the region reader and run every phase's warm-up ops.
func setupField(spec *fieldSpec, seed int64, quick bool) (*fieldEnv, error) {
	pl, err := presetPipeline(spec.preset)
	if err != nil {
		return nil, err
	}
	genDims, stack := spec.dims, spec.stack
	if quick {
		genDims, stack = spec.quick, 1
	}
	data, dims := generate(spec.dataset, genDims, stack, seed)
	planes := (dims.SlowExtent() + spec.chunks - 1) / spec.chunks
	e := &fieldEnv{
		dims: dims, pl: pl,
		p:          fzmod.NewPlatform(),
		eb:         fzmod.Rel(spec.relEB),
		chunkElems: planes * dims.PlaneElems(),
		data:       data,
	}
	if e.absEB, _, err = preprocess.Resolve(e.p, device.Accel, e.data, e.eb); err != nil {
		return nil, err
	}
	if e.blob, _, err = compressChunked(e.p, e.pl, e.data, dims, e.eb, e.chunkElems, fieldWorkers); err != nil {
		return nil, fmt.Errorf("first compress: %w", err)
	}
	var got grid.Dims
	if e.ref, got, _, err = decompress(e.p, e.blob, fieldWorkers); err != nil {
		return nil, fmt.Errorf("first decompress: %w", err)
	}
	if got != dims {
		return nil, fmt.Errorf("first decompress: dims %v, want %v", got, dims)
	}
	if i := fzmod.VerifyBound(e.data, e.ref, e.absEB); i != -1 {
		return nil, fmt.Errorf("first decompress: bound %g violated at %d", e.absEB, i)
	}
	e.refCRC = crc32.ChecksumIEEE(f32bytes(e.ref))
	if e.region, err = openRegion(e.p, e.blob, nil, fieldWorkers); err != nil {
		return nil, err
	}
	e.sels = regionSchedule(dims, planes, seed)
	e.smallDims = smallDims(dims)
	e.small = make([]float32, e.smallDims.N())
	copyWindow(e.small, fzmod.FullRegion(e.smallDims), dims, e.data, 0, dims.SlowExtent())
	if e.smallBlob, err = compressSmall(e.p, e.pl, e.small, e.smallDims, e.eb); err != nil {
		return nil, fmt.Errorf("first small compress: %w", err)
	}
	for i := 0; i < warmupOps; i++ {
		for _, op := range []func(int) (time.Duration, error){e.compressOp, e.decompressOp(nil), e.regionOp, e.smallOp} {
			if _, err := op(i); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return e, nil
}

func (e *fieldEnv) close() { e.p.Close() }

func (e *fieldEnv) rawBytes() int { return 4 * e.dims.N() }

// smallDims is the corner block a field workload compresses as its small
// input: 128 KiB where the field allows it, whatever the rank.
func smallDims(d grid.Dims) grid.Dims {
	switch d.Rank() {
	case 3:
		return grid.D3(min(32, d.X), min(32, d.Y), min(32, d.Z))
	case 2:
		return grid.D2(min(256, d.X), min(128, d.Y))
	default:
		return grid.D1(min(32<<10, d.X))
	}
}

// regionSchedule derives the seeded selections a region phase cycles through:
// X/2 × Y/2 × regionPlanes planes (2-D: X/2 × regionPlanes rows; 1-D: 1/16 of
// the field), never more planes than one chunk holds, placed at a
// pseudo-random offset across a pseudo-random chunk boundary. Every selection
// therefore intersects exactly two chunks: a free offset would make the
// latency bimodal (one chunk or two) and its median flip from seed to seed.
func regionSchedule(d grid.Dims, chunkPlanes int, seed int64) []fzmod.RegionSel {
	rng := rand.New(rand.NewSource(seed))
	slow := d.SlowExtent()
	extent := regionPlanes
	if d.Rank() == 1 {
		extent = slow / 16
	}
	extent = max(2, min(extent, chunkPlanes))
	boundaries := (slow - 1) / chunkPlanes
	sels := make([]fzmod.RegionSel, regionSels)
	for i := range sels {
		b := chunkPlanes * (1 + rng.Intn(boundaries))
		lo := b - extent + 1 + rng.Intn(extent-1)
		hi := min(lo+extent, slow)
		sel := fzmod.FullRegion(d)
		switch d.Rank() {
		case 3:
			sel.X1, sel.Y1, sel.Z0, sel.Z1 = d.X/2, d.Y/2, lo, hi
		case 2:
			sel.X1, sel.Y0, sel.Y1 = d.X/2, lo, hi
		default:
			sel.X0, sel.X1 = lo, hi
		}
		sels[i] = sel
	}
	return sels
}

func (e *fieldEnv) compressOp(int) (time.Duration, error) {
	t := time.Now()
	blob, _, err := compressChunked(e.p, e.pl, e.data, e.dims, e.eb, e.chunkElems, fieldWorkers)
	d := time.Since(t)
	if err == nil && !bytes.Equal(blob, e.blob) {
		err = errors.New("compress: container bytes differ from the first iteration's")
	}
	return d, err
}

// decompressOp returns the decompress op; it stores each result in *last
// (when non-nil) so the phase can bound-check its final output.
func (e *fieldEnv) decompressOp(last *[]float32) func(int) (time.Duration, error) {
	return func(i int) (time.Duration, error) {
		t := time.Now()
		vals, _, _, err := decompress(e.p, e.blob, fieldWorkers)
		d := time.Since(t)
		if err != nil {
			return d, err
		}
		if e.fault != nil {
			e.fault("decompress", i, vals)
		}
		if last != nil {
			*last = vals
		}
		if crc32.ChecksumIEEE(f32bytes(vals)) != e.refCRC {
			err = errors.New("decompress: output CRC differs from the first iteration's")
		}
		return d, err
	}
}

func (e *fieldEnv) regionOp(i int) (time.Duration, error) {
	return e.regionRead(e.region, "region", i)
}

// regionRead times one read of the scheduled selection and checks it against
// the same window of the reference reconstruction (bit-exact) and of the
// original field (error bound).
func (e *fieldEnv) regionRead(r *fzmod.Region, phase string, i int) (time.Duration, error) {
	sel := e.sels[i%len(e.sels)]
	t := time.Now()
	vals, _, err := readRegion(r, sel)
	d := time.Since(t)
	if err != nil {
		return d, err
	}
	if e.fault != nil {
		e.fault(phase, i, vals)
	}
	return d, e.checkWindow(sel, vals)
}

func (e *fieldEnv) checkWindow(sel fzmod.RegionSel, vals []float32) error {
	want := make([]float32, sel.Dims().N())
	if len(vals) != len(want) {
		return fmt.Errorf("region %v: %d values, want %d", sel, len(vals), len(want))
	}
	slow := e.dims.SlowExtent()
	copyWindow(want, sel, e.dims, e.ref, 0, slow)
	if !bytes.Equal(f32bytes(vals), f32bytes(want)) {
		return fmt.Errorf("region %v: differs from the full reconstruction's window", sel)
	}
	copyWindow(want, sel, e.dims, e.data, 0, slow)
	if i := fzmod.VerifyBound(want, vals, e.absEB); i != -1 {
		return fmt.Errorf("region %v: bound %g violated at %d", sel, e.absEB, i)
	}
	return nil
}

func (e *fieldEnv) smallOp(int) (time.Duration, error) {
	t := time.Now()
	blob, err := compressSmall(e.p, e.pl, e.small, e.smallDims, e.eb)
	d := time.Since(t)
	if err == nil && !bytes.Equal(blob, e.smallBlob) {
		err = errors.New("small compress: container bytes differ from the first iteration's")
	}
	return d, err
}

// endToEnd runs the timed phases, interleaved, with tracing off and reports
// the end-to-end metrics (all but setup_s, which the caller measures). The
// last decompress output is bound-checked; the first was during set-up.
func (e *fieldEnv) endToEnd(lim limits) (metrics, int, int) {
	var last []float32
	specs := []phaseSpec{
		{"compress", fieldShares.compress, e.compressOp},
		{"decompress", fieldShares.decompress, e.decompressOp(&last)},
		{"region", fieldShares.region, e.regionOp},
		{"small", fieldShares.small, e.smallOp}}
	phases := runInterleaved(lim, specs...)
	comp, dec, reg, small := phases[0], phases[1], phases[2], phases[3]
	if last != nil && fzmod.VerifyBound(e.data, last, e.absEB) != -1 {
		dec.failed++
		logf("decompress: last output violates bound %g", e.absEB)
	}
	rss := memoryPass(specs, phases)

	m := metrics{}
	m["compress_gbs"] = comp.ms.timing("GB/s", gbs(e.rawBytes()))
	m["decompress_gbs"] = dec.ms.timing("GB/s", gbs(e.rawBytes()))
	m["region_p50_ms"] = reg.ms.timing("ms", nil)
	m["small_p50_ms"] = small.ms.timing("ms", nil)
	m.set("compression_ratio", fzmod.CompressionRatio(e.rawBytes(), len(e.blob)), "ratio")
	m.set("peak_rss_mib", rss, "MiB")
	attempted, failed := tally(comp, dec, reg, small)
	q, err := fzmod.Evaluate(e.p, e.data, e.ref)
	if err != nil {
		logf("psnr: %v", err)
		failed++
	}
	m.set("psnr_db", q.PSNR, "dB")
	return m, attempted, failed
}

// copyWindow copies into out (shaped sel.Dims()) the part of sel that lies in
// src, a slab of a dims-shaped field covering planes [srcLo, srcLo+planes) of
// its slowest axis at full extent in the faster ones.
func copyWindow(out []float32, sel fzmod.RegionSel, dims grid.Dims, src []float32, srcLo, planes int) {
	od := sel.Dims()
	nx := sel.X1 - sel.X0
	switch dims.Rank() {
	case 3:
		sd := grid.D3(dims.X, dims.Y, planes)
		for z := max(sel.Z0, srcLo); z < min(sel.Z1, srcLo+planes); z++ {
			for y := sel.Y0; y < sel.Y1; y++ {
				s, d := sd.Idx(sel.X0, y, z-srcLo), od.Idx(0, y-sel.Y0, z-sel.Z0)
				copy(out[d:d+nx], src[s:s+nx])
			}
		}
	case 2:
		for y := max(sel.Y0, srcLo); y < min(sel.Y1, srcLo+planes); y++ {
			s, d := dims.X*(y-srcLo)+sel.X0, od.X*(y-sel.Y0)
			copy(out[d:d+nx], src[s:s+nx])
		}
	default:
		x0, x1 := max(sel.X0, srcLo), min(sel.X1, srcLo+planes)
		copy(out[x0-sel.X0:x1-sel.X0], src[x0-srcLo:x1-srcLo])
	}
}

// f32bytes views a float32 slice as bytes without copying (the CRC and
// equality checks run on every op, outside the timed span).
func f32bytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// memoryPass runs memoryOps more ops of every phase, round-robin, and returns
// the resident-set high-water mark they reach in MiB. It starts from a
// freshly collected heap with the mark restarted (so the discarded set-up
// cycles do not count) and keeps the collector off while it runs: the mark is
// then the live set plus everything the fixed op sequence allocates, which
// repeats from run to run. With the collector on, its pacing decides how far
// the heap overshoots before each cycle, and the mark swung 15 % between runs.
func memoryPass(specs []phaseSpec, phases []*phase) float64 {
	defer pauseGC()()
	for n := 0; n < memoryOps; n++ {
		for k, s := range specs {
			d, err := s.op(phases[k].attempted)
			phases[k].record(s.name, d, err)
		}
	}
	return peakRSSMiB()
}

// pauseGC collects the heap, returns the garbage to the OS, asks the kernel to
// restart the resident-set high-water mark (where /proc/self/clear_refs is not
// writable the mark simply keeps counting) and turns the collector off; the
// function it returns turns it back on.
func pauseGC() (resume func()) {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
	percent := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(percent) }
}

// peakRSSMiB reads VmHWM; 0 where /proc is unavailable.
func peakRSSMiB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
