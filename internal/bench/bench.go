// Package bench is the evaluation harness: it regenerates every table and
// figure of the paper's §4 against the synthetic SDRBench stand-ins. Both
// cmd/fzbench and the root testing.B benchmarks drive these entry points,
// so the printed rows and the benchmark measurements come from one
// implementation.
package bench

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"fzmod/internal/baseline/cuszp2"
	"fzmod/internal/baseline/fzgpu"
	"fzmod/internal/baseline/pfpl"
	"fzmod/internal/baseline/sz3"
	"fzmod/internal/core"
	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/metrics"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

// Scale selects workload size.
type Scale int

const (
	// Small quarters each dimension — quick CI-grade runs.
	Small Scale = iota
	// Full uses the harness defaults from sdrbench.DefaultDims.
	Full
)

// EBs are the paper's three evaluation bounds (Table 3, Figures 1–3).
var EBs = []float64{1e-2, 1e-4, 1e-6}

// Dims returns the workload geometry for a dataset at a scale.
func Dims(ds sdrbench.Dataset, sc Scale) grid.Dims {
	d := sdrbench.DefaultDims(ds)
	if sc == Small {
		q := func(v int) int {
			v /= 4
			if v < 8 {
				v = 8
			}
			return v
		}
		switch d.Rank() {
		case 1:
			return grid.D1(d.X / 16)
		case 2:
			return grid.D2(q(d.X), q(d.Y))
		default:
			return grid.D3(q(d.X), q(d.Y), q(d.Z))
		}
	}
	return d
}

// Compressors returns the evaluated compressors in the paper's figure
// legend order: FZ-GPU, FZMod-default, FZMod-quality, FZMod-speed, PFPL,
// cuSZp2, with SZ3 appended for the CR/rate-distortion experiments.
func Compressors() []core.Compressor {
	return append(GPUCompressors(), sz3.New())
}

// GPUCompressors returns the throughput-comparison set (paper Figures 1–3
// exclude SZ3 as the low-throughput CPU reference).
func GPUCompressors() []core.Compressor {
	return []core.Compressor{
		fzgpu.Compressor{},
		core.NewDefault(),
		core.NewQuality(),
		core.NewSpeed(),
		pfpl.Compressor{},
		cuszp2.Compressor{},
	}
}

// Result is one (compressor, dataset, eb) measurement.
type Result struct {
	Compressor string
	Dataset    string
	EB         float64
	CR         float64
	Bitrate    float64 // bits per value
	PSNR       float64
	CompGBs    float64 // compression throughput
	DecompGBs  float64 // decompression throughput
	CompErr    error   // non-nil when the compressor rejected the setting
}

// datasets are generated once per (dataset, dims) and cached: generation
// costs more than compression at full scale.
var (
	cacheMu sync.Mutex
	cache   = map[string][]float32{}
)

// Data returns the (cached) primary synthetic field for a dataset.
func Data(ds sdrbench.Dataset, sc Scale) ([]float32, grid.Dims) {
	return DataField(ds, sc, 0)
}

// fieldSeeds generates distinct fields of the same dataset: Table 3
// reports ratios averaged over a dataset's fields (Table 2: 33/6/20/6
// fields), which this harness approximates with three.
var fieldSeeds = []int64{42, 1042, 90042}

// DataField returns the (cached) synthetic field with the given field
// index.
func DataField(ds sdrbench.Dataset, sc Scale, field int) ([]float32, grid.Dims) {
	dims := Dims(ds, sc)
	seed := fieldSeeds[field%len(fieldSeeds)]
	key := fmt.Sprintf("%v-%v-%d", ds, dims, seed)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if d, ok := cache[key]; ok {
		return d, dims
	}
	d := sdrbench.Generate(ds, dims, seed)
	cache[key] = d
	return d, dims
}

// timedRuns is how many repetitions medianSec times. The reported time is
// their median, so one noisy sample — a GC cycle, a neighbour on a shared
// core — has bounded influence on a printed cell.
const timedRuns = 3

// medianSec returns the median wall time of timedRuns runs of op. Callers
// run op once before (the run whose result and error they keep), so no
// timed run pays first-touch page faults, scratch-pool fill or
// grid-worker start.
func medianSec(op func()) float64 {
	var secs [timedRuns]float64
	for i := range secs {
		t0 := time.Now()
		op()
		secs[i] = time.Since(t0).Seconds()
	}
	sort.Float64s(secs[:])
	return secs[timedRuns/2]
}

// roundTrip runs one compressor on one dataset at one bound once, untimed:
// compression, decompression, bound verification, and quality. It returns
// the container with the result so RunOne can time decompression.
func roundTrip(p *device.Platform, c core.Compressor, data []float32, dims grid.Dims, eb float64) (Result, []byte) {
	r := Result{Compressor: c.Name(), EB: eb}
	blob, err := c.Compress(p, data, dims, preprocess.RelBound(eb))
	if err != nil {
		// Matches the paper's Table 3 footnote: some pipelines reject
		// some (dataset, eb) combinations; the cell is reported empty.
		r.CompErr = err
		return r, nil
	}
	dec, _, err := c.Decompress(p, blob)
	if err != nil {
		r.CompErr = fmt.Errorf("decompress: %w", err)
		return r, nil
	}
	absEB, _, _ := preprocess.Resolve(p, device.Host, data, preprocess.RelBound(eb))
	if i := metrics.VerifyBound(data, dec, absEB); i != -1 {
		r.CompErr = fmt.Errorf("bound violated at index %d", i)
		return r, nil
	}
	q, err := metrics.Evaluate(p, device.Host, data, dec)
	if err != nil {
		r.CompErr = err
		return r, nil
	}
	r.CR = metrics.CompressionRatio(4*dims.N(), len(blob))
	r.Bitrate = metrics.Bitrate(dims.N(), len(blob))
	r.PSNR = q.PSNR
	return r, blob
}

// RunOne measures one compressor on one dataset at one bound: the verified
// round trip, which doubles as the warm-up, then timed compression and
// timed decompression.
func RunOne(p *device.Platform, c core.Compressor, data []float32, dims grid.Dims, eb float64) Result {
	r, blob := roundTrip(p, c, data, dims, eb)
	if r.CompErr != nil {
		return r
	}
	inBytes := 4 * dims.N()
	r.CompGBs = metrics.Throughput(inBytes, medianSec(func() {
		c.Compress(p, data, dims, preprocess.RelBound(eb))
	}))
	r.DecompGBs = metrics.Throughput(inBytes, medianSec(func() {
		c.Decompress(p, blob)
	}))
	return r
}

// measureGrid runs every compressor on every dataset's primary field at
// every bound of EBs, dataset-major then bound then compressor — the row
// order of Table 3 and Figures 1–3.
func measureGrid(p *device.Platform, sc Scale, cs []core.Compressor) []Result {
	var out []Result
	for _, ds := range sdrbench.All() {
		data, dims := Data(ds, sc)
		for _, eb := range EBs {
			for _, c := range cs {
				r := RunOne(p, c, data, dims, eb)
				r.Dataset = ds.String()
				out = append(out, r)
			}
		}
	}
	return out
}

// printGrid renders measureGrid-ordered results as one row per (dataset,
// bound) and one column per compressor; a rejected setting prints "–".
func printGrid(w io.Writer, cs []core.Compressor, results []Result, format string, cell func(Result) float64) {
	fmt.Fprintf(w, "%-10s %-8s", "Dataset", "eb")
	for _, c := range cs {
		fmt.Fprintf(w, " %14s", c.Name())
	}
	fmt.Fprintln(w)
	for i, r := range results {
		if i%len(cs) == 0 {
			fmt.Fprintf(w, "%-10s %-8.0e", r.Dataset, r.EB)
		}
		if r.CompErr != nil {
			fmt.Fprintf(w, " %14s", "–")
		} else {
			fmt.Fprintf(w, " "+format, cell(r))
		}
		if (i+1)%len(cs) == 0 {
			fmt.Fprintln(w)
		}
	}
}

// Table3 regenerates the compression-ratio table: datasets × bounds ×
// compressors, with each cell the average over the dataset's fields, as in
// the paper ("Average Compression Ratios"). A compressor that rejects any
// field at a bound gets an empty cell, mirroring the paper's dropped HACC
// entries.
func Table3(w io.Writer, p *device.Platform, sc Scale) []Result {
	cs := Compressors()
	var out []Result
	for _, ds := range sdrbench.All() {
		for _, eb := range EBs {
			for _, c := range cs {
				var cell Result
				var sum float64
				for field := range fieldSeeds {
					data, dims := DataField(ds, sc, field)
					r, _ := roundTrip(p, c, data, dims, eb) // ratios only: nothing to time
					if field == 0 {
						cell = r
						cell.Dataset = ds.String()
					}
					if r.CompErr != nil {
						cell.CompErr = r.CompErr
						break
					}
					sum += r.CR
				}
				if cell.CompErr == nil {
					cell.CR = sum / float64(len(fieldSeeds))
				}
				out = append(out, cell)
			}
		}
	}
	fmt.Fprintf(w, "Table 3: average compression ratios over %d fields (synthetic SDRBench stand-ins)\n", len(fieldSeeds))
	printGrid(w, cs, out, "%14.1f", func(r Result) float64 { return r.CR })
	return out
}

// Fig1 regenerates the compression/decompression throughput figure. Every
// (dataset, bound, compressor) is measured once; both tables render the
// returned results.
func Fig1(w io.Writer, p *device.Platform, sc Scale) []Result {
	cs := GPUCompressors()
	out := measureGrid(p, sc, cs)
	fmt.Fprintf(w, "Figure 1: throughput in GB/s (shape comparison; absolute values are single-core Go)\n")
	fmt.Fprintln(w, "[compression]")
	printGrid(w, cs, out, "%14.3f", func(r Result) float64 { return r.CompGBs })
	fmt.Fprintln(w, "[decompression]")
	printGrid(w, cs, out, "%14.3f", func(r Result) float64 { return r.DecompGBs })
	return out
}

// paperPeakGBs is cuSZp2's approximate peak compression throughput on the
// paper's H100 (Figure 1 top row, ~600 GB/s). It anchors the bandwidth
// calibration below.
const paperPeakGBs = 600.0

// Speedup regenerates Figures 2 (H100 model) and 3 (V100 model): Eq. 1
// with the platform's measured-bandwidth figure from Table 1.
//
// Eq. 1 depends only on the ratio T/BW and on CR. Our compressors run on
// one Go core, so absolute T is ~3 orders of magnitude below the paper's
// GPUs; applying the paper's BW directly would make every speedup ~0 and
// erase the figure's shape. Instead the link bandwidth is rescaled by a
// single calibration factor — the ratio of our fastest measured compressor
// to cuSZp2's paper throughput — which preserves every T/BW ratio and
// therefore the figure's who-wins-where structure. The factor is printed
// with the table.
func Speedup(w io.Writer, p *device.Platform, sc Scale) []Result {
	cs := GPUCompressors()
	out := measureGrid(p, sc, cs)
	peak := 0.0
	for _, r := range out {
		peak = max(peak, r.CompGBs)
	}
	scale := peak / paperPeakGBs
	bwGBs := p.LinkBandwidth / 1e9 * scale

	fmt.Fprintf(w, "Overall speedup (Eq. 1), BW=%.2f GB/s (Table 1) x calibration %.3g = %.4f GB/s (%s)\n",
		p.LinkBandwidth/1e9, scale, bwGBs, p.Name)
	printGrid(w, cs, out, "%14.2f", func(r Result) float64 {
		return metrics.OverallSpeedup(r.CompGBs, bwGBs, r.CR)
	})
	return out
}

// Fig4EBs is the rate–distortion sweep grid.
var Fig4EBs = []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6}

// Fig4 regenerates the rate–distortion curves: (bitrate, PSNR) series per
// compressor per dataset over the bound sweep.
func Fig4(w io.Writer, p *device.Platform, sc Scale) []Result {
	cs := Compressors()
	fmt.Fprintf(w, "Figure 4: rate-distortion (bitrate bits/value → PSNR dB)\n")
	var out []Result
	for _, ds := range sdrbench.All() {
		data, dims := Data(ds, sc)
		fmt.Fprintf(w, "[%s]\n", ds)
		for _, c := range cs {
			fmt.Fprintf(w, "  %-16s", c.Name())
			series := make([]Result, 0, len(Fig4EBs))
			for _, eb := range Fig4EBs {
				r := RunOne(p, c, data, dims, eb)
				r.Dataset = ds.String()
				if r.CompErr == nil {
					series = append(series, r)
				}
				out = append(out, r)
			}
			sort.Slice(series, func(i, j int) bool { return series[i].Bitrate < series[j].Bitrate })
			for _, r := range series {
				fmt.Fprintf(w, " (%.2f, %.1f)", r.Bitrate, r.PSNR)
			}
			fmt.Fprintln(w)
		}
	}
	return out
}
