package bench

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"fzmod/internal/core"
	"fzmod/internal/device"
	"fzmod/internal/metrics"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

// StreamComparison prints the streaming-executor measurement; see
// StreamComparisonReport for the machine-readable form.
func StreamComparison(w io.Writer, p *device.Platform, sc Scale) error {
	_, err := StreamComparisonReport(w, p, sc)
	return err
}

// StreamComparisonReport measures the out-of-core streaming path on the
// same workload as the chunked comparison (so the two reports share one
// baseline file): compression from an io.Reader and decompression to an
// io.Writer at window widths 1, 2, 4 and 8, with the window doubling as
// the scheduler width. Rows carry the ChunkedRow schema — comp/dec GB/s,
// ratio, steady-state allocs — under executor names "stream-wN", and every
// row's output is verified against the error bound before it is reported.
func StreamComparisonReport(w io.Writer, p *device.Platform, sc Scale) (*ChunkedReport, error) {
	dims := chunkedDims(sc)
	data := sdrbench.GenNYX(dims, 77)
	raw := device.F32Bytes(data)
	pl := core.NewDefault()
	inBytes := len(raw)
	chunkElems := dims.N() / 8 // eight chunks, matching the chunked rows

	absEB, _, err := preprocess.Resolve(p, device.Host, data, preprocess.RelBound(1e-4))
	if err != nil {
		return nil, err
	}
	eb := preprocess.AbsBound(absEB)

	report := &ChunkedReport{
		Experiment: "stream",
		Workload:   fmt.Sprintf("nyx-%v", dims),
		Pipeline:   pl.Name(),
		RelEB:      1e-4,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Kernels:    p.KernelImpl(),
	}

	fmt.Fprintf(w, "Streaming (out-of-core) executor: %s, %v (%.0f MiB), eb=rel 1e-4 resolved, %d-elem chunks\n",
		pl.Name(), dims, float64(inBytes)/(1<<20), chunkElems)
	fmt.Fprintf(w, "%-16s %8s %10s %10s %8s %12s\n", "executor", "chunks", "comp GB/s", "dec GB/s", "ratio", "allocs/op")

	var stream bytes.Buffer
	var field bytes.Buffer
	for _, window := range []int{1, 2, 4, 8} {
		opts := core.StreamOpts{ChunkElems: chunkElems, Window: window, Workers: window}
		name := fmt.Sprintf("stream-w%d", window)

		// Best-of-two timing, matching the chunked matrix rows: scheduler
		// and GC noise is one-sided, and the throughput gate needs per-row
		// noise well under its tolerance.
		var written int64
		var compSec, decSec float64
		for pass := 0; pass < 2; pass++ {
			stream.Reset()
			t0 := time.Now()
			n, err := pl.CompressStream(p, bytes.NewReader(raw), dims, eb, &stream, opts)
			sec := time.Since(t0).Seconds()
			if err != nil {
				return nil, fmt.Errorf("%s compress: %w", name, err)
			}
			written = n
			if pass == 0 || sec < compSec {
				compSec = sec
			}

			field.Reset()
			field.Grow(inBytes)
			t0 = time.Now()
			gotDims, err := core.DecompressStream(p, bytes.NewReader(stream.Bytes()), &field, opts)
			sec = time.Since(t0).Seconds()
			if err != nil {
				return nil, fmt.Errorf("%s decompress: %w", name, err)
			}
			if pass == 0 || sec < decSec {
				decSec = sec
			}
			if gotDims != dims {
				return nil, fmt.Errorf("%s: dims %v, want %v", name, gotDims, dims)
			}
			dec := device.BytesF32(field.Bytes())
			if i := metrics.VerifyBound(data, dec, absEB); i != -1 {
				return nil, fmt.Errorf("%s: bound violated at %d", name, i)
			}
		}

		// Steady-state allocation; device.MeasureAllocs re-warms the pools and
		// holds the GC off during the measured run, exactly as the
		// chunked rows do.
		allocs, bytesOp := device.MeasureAllocs(func() {
			if _, err := pl.CompressStream(p, bytes.NewReader(raw), dims, eb, io.Discard, opts); err != nil {
				panic(err)
			}
		})
		r := ChunkedRow{
			Executor: name, Workers: window, Chunks: 8,
			CompGBs:     metrics.Throughput(inBytes, compSec),
			DecGBs:      metrics.Throughput(inBytes, decSec),
			Ratio:       metrics.CompressionRatio(inBytes, int(written)),
			AllocsPerOp: allocs, BytesPerOp: bytesOp,
		}
		report.Rows = append(report.Rows, r)
		fmt.Fprintf(w, "%-16s %8d %10.3f %10.3f %8.1f %12d\n", name, r.Chunks,
			r.CompGBs, r.DecGBs, r.Ratio, r.AllocsPerOp)
	}
	return report, nil
}

// CompareThroughput checks every row of new against the matching baseline
// row and returns an error when compression or decompression throughput
// regressed beyond tolerance (e.g. 0.35 = new may be up to 35% slower).
// Improvements never fail, and rows missing from the baseline are skipped,
// so a refreshed experiment list does not break older baselines.
//
// Matrix rows measured above GOMAXPROCS=1 are skipped: absolute GB/s on
// oversubscribed multi-core rows varies with the runner's core count and
// load, so those rows are gated relatively, through CompareScaling's
// within-run scaling_efficiency, while the single-core rows (where a
// kernel regression shows undiluted) keep the absolute gate.
//
// When the two reports record different kernel implementation tiers
// (purego vs avx2/neon, or a legacy baseline with no tier recorded against
// a tiered run), the whole gate is skipped: absolute GB/s between
// implementations differs by design, and failing a purego CI lane against
// an AVX2 baseline would gate on hardware, not on a regression. Refresh
// the baseline on matching hardware to re-arm the gate.
func CompareThroughput(baseline, new *ChunkedReport, tolerance float64) error {
	if baseline.Kernels != new.Kernels {
		return nil
	}
	for _, row := range new.Rows {
		if row.GoMaxProcs > 1 {
			continue
		}
		base := baseline.Row(row.Executor)
		if base == nil {
			continue
		}
		if floor := base.CompGBs * (1 - tolerance); base.CompGBs > 0 && row.CompGBs < floor {
			return fmt.Errorf("bench: %s comp throughput regressed: %.3f GB/s < %.3f (baseline %.3f -%.0f%%)",
				row.Executor, row.CompGBs, floor, base.CompGBs, 100*tolerance)
		}
		if floor := base.DecGBs * (1 - tolerance); base.DecGBs > 0 && row.DecGBs < floor {
			return fmt.Errorf("bench: %s dec throughput regressed: %.3f GB/s < %.3f (baseline %.3f -%.0f%%)",
				row.Executor, row.DecGBs, floor, base.DecGBs, 100*tolerance)
		}
	}
	return nil
}
