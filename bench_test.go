// Benchmarks regenerating the paper's evaluation, one group per table or
// figure (see DESIGN.md's experiment index), plus per-module
// micro-benchmarks for the substrate layers. Run:
//
//	go test -bench=. -benchmem
//
// Shapes, not absolute numbers, are the reproduction target: these run on
// a simulated accelerator, not the paper's H100/V100 testbed.
package fzmod_test

import (
	"fmt"
	"testing"

	"fzmod"
	"fzmod/internal/bench"
	"fzmod/internal/core"
	"fzmod/internal/device"
	"fzmod/internal/encoder/fzg"
	"fzmod/internal/encoder/huffman"
	"fzmod/internal/encoder/lzr"
	"fzmod/internal/histogram"
	"fzmod/internal/metrics"
	"fzmod/internal/predictor/lorenzo"
	"fzmod/internal/predictor/spline"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

var benchPlatform = device.NewH100Platform()

// reportThroughput attaches GB/s to a benchmark moving n input bytes per
// iteration.
func reportThroughput(b *testing.B, bytes int) {
	b.SetBytes(int64(bytes))
}

// --- E1: Table 3 (compression ratios) ---------------------------------

// BenchmarkTable3 measures one compression per (dataset, compressor) at
// the paper's middle bound and reports the achieved ratio as a custom
// metric, regenerating Table 3's rows under `go test -bench`.
func BenchmarkTable3(b *testing.B) {
	for _, ds := range sdrbench.All() {
		data, dims := bench.Data(ds, bench.Small)
		for _, c := range bench.Compressors() {
			b.Run(fmt.Sprintf("%s/%s", ds, c.Name()), func(b *testing.B) {
				reportThroughput(b, 4*dims.N())
				var cr float64
				for i := 0; i < b.N; i++ {
					blob, err := c.Compress(benchPlatform, data, dims, preprocess.RelBound(1e-4))
					if err != nil {
						b.Skipf("compressor rejected setting: %v", err)
					}
					cr = metrics.CompressionRatio(4*dims.N(), len(blob))
				}
				b.ReportMetric(cr, "ratio")
			})
		}
	}
}

// --- E2: Figure 1 (compression / decompression throughput) ------------

func BenchmarkFig1Compression(b *testing.B) {
	for _, ds := range sdrbench.All() {
		data, dims := bench.Data(ds, bench.Small)
		for _, c := range bench.GPUCompressors() {
			b.Run(fmt.Sprintf("%s/%s", ds, c.Name()), func(b *testing.B) {
				reportThroughput(b, 4*dims.N())
				for i := 0; i < b.N; i++ {
					if _, err := c.Compress(benchPlatform, data, dims, preprocess.RelBound(1e-4)); err != nil {
						b.Skipf("compressor rejected setting: %v", err)
					}
				}
			})
		}
	}
}

func BenchmarkFig1Decompression(b *testing.B) {
	for _, ds := range sdrbench.All() {
		data, dims := bench.Data(ds, bench.Small)
		for _, c := range bench.GPUCompressors() {
			blob, err := c.Compress(benchPlatform, data, dims, preprocess.RelBound(1e-4))
			if err != nil {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", ds, c.Name()), func(b *testing.B) {
				reportThroughput(b, 4*dims.N())
				for i := 0; i < b.N; i++ {
					if _, _, err := c.Decompress(benchPlatform, blob); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E3/E4: Figures 2 and 3 (overall speedup, Eq. 1) ------------------

func benchSpeedup(b *testing.B, p *device.Platform) {
	bw := p.LinkBandwidth / 1e9
	for _, ds := range sdrbench.All() {
		data, dims := bench.Data(ds, bench.Small)
		for _, c := range bench.GPUCompressors() {
			b.Run(fmt.Sprintf("%s/%s", ds, c.Name()), func(b *testing.B) {
				var speedup float64
				for i := 0; i < b.N; i++ {
					r := bench.RunOne(p, c, data, dims, 1e-4)
					if r.CompErr != nil {
						b.Skipf("compressor rejected setting: %v", r.CompErr)
					}
					speedup = metrics.OverallSpeedup(r.CompGBs, bw, r.CR)
				}
				b.ReportMetric(speedup, "speedup")
			})
		}
	}
}

func BenchmarkFig2SpeedupH100(b *testing.B) { benchSpeedup(b, device.NewH100Platform()) }
func BenchmarkFig3SpeedupV100(b *testing.B) { benchSpeedup(b, device.NewV100Platform()) }

// --- E5: Figure 4 (rate–distortion) ------------------------------------

func BenchmarkFig4RateDistortion(b *testing.B) {
	data, dims := bench.Data(sdrbench.NYX, bench.Small)
	for _, c := range bench.Compressors() {
		for _, eb := range []float64{1e-2, 1e-4} {
			b.Run(fmt.Sprintf("%s/eb=%.0e", c.Name(), eb), func(b *testing.B) {
				var br, psnr float64
				for i := 0; i < b.N; i++ {
					r := bench.RunOne(benchPlatform, c, data, dims, eb)
					if r.CompErr != nil {
						b.Skipf("compressor rejected setting: %v", r.CompErr)
					}
					br, psnr = r.Bitrate, r.PSNR
				}
				b.ReportMetric(br, "bits/val")
				b.ReportMetric(psnr, "PSNR-dB")
			})
		}
	}
}

// --- E6: STF ablation (§3.3.1) -----------------------------------------

func BenchmarkSTFAblation(b *testing.B) {
	data, dims := bench.Data(sdrbench.CESM, bench.Small)
	blob, err := core.NewDefault().Compress(benchPlatform, data, dims, preprocess.RelBound(1e-4))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		reportThroughput(b, 4*dims.N())
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Decompress(benchPlatform, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("taskflow", func(b *testing.B) {
		reportThroughput(b, 4*dims.N())
		for i := 0; i < b.N; i++ {
			if _, _, _, err := core.DecompressSTF(benchPlatform, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E7: histogram ablation (§3.2) --------------------------------------

func BenchmarkHistogramAblation(b *testing.B) {
	data, dims := bench.Data(sdrbench.CESM, bench.Small)
	absEB, _, err := preprocess.Resolve(benchPlatform, device.Accel, data, preprocess.RelBound(1e-4))
	if err != nil {
		b.Fatal(err)
	}
	for _, pd := range []struct {
		name string
		pr   core.Predictor
	}{
		{"lorenzo-codes", core.LorenzoPredictor{}},
		{"spline-codes", core.NewQuality().Pred},
	} {
		pred, err := pd.pr.Predict(benchPlatform, device.Accel, data, dims, absEB)
		if err != nil {
			b.Fatal(err)
		}
		bins := 2 * pred.Radius
		b.Run(pd.name+"/standard", func(b *testing.B) {
			reportThroughput(b, 2*len(pred.Codes))
			for i := 0; i < b.N; i++ {
				if _, err := histogram.Standard(benchPlatform, device.Accel, pred.Codes, bins); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(pd.name+"/topk", func(b *testing.B) {
			reportThroughput(b, 2*len(pred.Codes))
			for i := 0; i < b.N; i++ {
				if _, err := histogram.TopK(benchPlatform, device.Accel, pred.Codes, bins, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Module micro-benchmarks --------------------------------------------

func BenchmarkModuleLorenzo(b *testing.B) {
	data, dims := bench.Data(sdrbench.HURR, bench.Small)
	absEB, _, _ := preprocess.Resolve(benchPlatform, device.Accel, data, preprocess.RelBound(1e-4))
	b.Run("encode", func(b *testing.B) {
		reportThroughput(b, 4*dims.N())
		for i := 0; i < b.N; i++ {
			if _, err := lorenzo.Encode(benchPlatform, device.Accel, data, dims, absEB, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	q, _ := lorenzo.Encode(benchPlatform, device.Accel, data, dims, absEB, 0)
	b.Run("decode", func(b *testing.B) {
		reportThroughput(b, 4*dims.N())
		for i := 0; i < b.N; i++ {
			if _, err := lorenzo.Decode(benchPlatform, device.Accel, q, dims, absEB); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkModuleSpline(b *testing.B) {
	data, dims := bench.Data(sdrbench.HURR, bench.Small)
	absEB, _, _ := preprocess.Resolve(benchPlatform, device.Accel, data, preprocess.RelBound(1e-4))
	cfg := spline.Config{Mode: spline.Cubic, TuneOrder: true}
	b.Run("encode", func(b *testing.B) {
		reportThroughput(b, 4*dims.N())
		for i := 0; i < b.N; i++ {
			if _, err := spline.Encode(benchPlatform, device.Accel, data, dims, absEB, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	q, _ := spline.Encode(benchPlatform, device.Accel, data, dims, absEB, cfg)
	b.Run("decode", func(b *testing.B) {
		reportThroughput(b, 4*dims.N())
		for i := 0; i < b.N; i++ {
			if _, err := spline.Decode(benchPlatform, device.Accel, q, dims, absEB); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchCodes(n int) []uint16 {
	data, dims := bench.Data(sdrbench.CESM, bench.Small)
	absEB, _, _ := preprocess.Resolve(benchPlatform, device.Accel, data, preprocess.RelBound(1e-4))
	q, _ := lorenzo.Encode(benchPlatform, device.Accel, data, dims, absEB, 0)
	if n > len(q.Codes) {
		n = len(q.Codes)
	}
	return q.Codes[:n]
}

func BenchmarkModuleHuffman(b *testing.B) {
	codes := benchCodes(1 << 20)
	hist, _ := histogram.Standard(benchPlatform, device.Accel, codes, 1024)
	b.Run("encode", func(b *testing.B) {
		reportThroughput(b, 2*len(codes))
		for i := 0; i < b.N; i++ {
			if _, err := huffman.Compress(benchPlatform, device.Host, codes, hist); err != nil {
				b.Fatal(err)
			}
		}
	})
	blob, _ := huffman.Compress(benchPlatform, device.Host, codes, hist)
	b.Run("decode", func(b *testing.B) {
		reportThroughput(b, 2*len(codes))
		for i := 0; i < b.N; i++ {
			if _, err := huffman.Decompress(benchPlatform, device.Host, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkModuleFZG(b *testing.B) {
	codes := benchCodes(1 << 20)
	b.Run("encode", func(b *testing.B) {
		reportThroughput(b, 2*len(codes))
		for i := 0; i < b.N; i++ {
			fzg.Encode(benchPlatform, device.Accel, codes, 512)
		}
	})
	blob := fzg.Encode(benchPlatform, device.Accel, codes, 512)
	b.Run("decode", func(b *testing.B) {
		reportThroughput(b, 2*len(codes))
		for i := 0; i < b.N; i++ {
			if _, err := fzg.Decode(benchPlatform, device.Accel, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkModuleLZ(b *testing.B) {
	codes := benchCodes(1 << 20)
	src := device.U16Bytes(codes)
	b.Run("compress", func(b *testing.B) {
		reportThroughput(b, len(src))
		for i := 0; i < b.N; i++ {
			lzr.Compress(benchPlatform, device.Host, src)
		}
	})
	blob := lzr.Compress(benchPlatform, device.Host, src)
	b.Run("decompress", func(b *testing.B) {
		reportThroughput(b, len(src))
		for i := 0; i < b.N; i++ {
			if _, err := lzr.Decompress(benchPlatform, device.Host, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Chunked executor: block-parallel vs monolithic ---------------------

// BenchmarkChunkedExecutor compares the monolithic single-stream pipeline
// against the chunked concurrent executor on one synthetic field split
// into 8 slabs, at every worker budget each way. Crossed with -cpu it is
// the GOMAXPROCS × budget scaling matrix:
//
//	go test -run '^$' -bench ChunkedExecutor -cpu 1,2,4,8 .
//
// decompress/monolithic is the one-chunk FZMD decode at field size.
func BenchmarkChunkedExecutor(b *testing.B) {
	dims := fzmod.Dims3(128, 128, 64)
	data := sdrbench.GenNYX(dims, 77)
	pl := fzmod.Default()
	eb := fzmod.Rel(1e-4)
	chunkElems := dims.N() / 8
	budgets := []int{1, 2, 4, 8}

	b.Run("compress/monolithic", func(b *testing.B) {
		reportThroughput(b, 4*dims.N())
		for i := 0; i < b.N; i++ {
			if _, err := pl.CompressMonolithic(benchPlatform, data, dims, eb); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range budgets {
		opts := fzmod.ChunkOpts{ChunkElems: chunkElems, Workers: workers}
		b.Run(fmt.Sprintf("compress/chunked-w%d", workers), func(b *testing.B) {
			reportThroughput(b, 4*dims.N())
			for i := 0; i < b.N; i++ {
				if _, err := pl.CompressChunked(benchPlatform, data, dims, eb, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	monoBlob, err := pl.CompressMonolithic(benchPlatform, data, dims, eb)
	if err != nil {
		b.Fatal(err)
	}
	chunkedBlob, err := pl.CompressChunked(benchPlatform, data, dims, eb, fzmod.ChunkOpts{ChunkElems: chunkElems})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decompress/monolithic", func(b *testing.B) {
		reportThroughput(b, 4*dims.N())
		for i := 0; i < b.N; i++ {
			if _, _, err := fzmod.Decompress(benchPlatform, monoBlob); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range budgets {
		opts := fzmod.DecompressOpts{Workers: workers}
		b.Run(fmt.Sprintf("decompress/chunked-w%d", workers), func(b *testing.B) {
			reportThroughput(b, 4*dims.N())
			for i := 0; i < b.N; i++ {
				if _, _, err := fzmod.DecompressWithOpts(benchPlatform, chunkedBlob, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEnd runs a full public-API roundtrip per preset pipeline.
func BenchmarkEndToEnd(b *testing.B) {
	data, dims := bench.Data(sdrbench.HURR, bench.Small)
	for _, pl := range fzmod.Presets() {
		b.Run(pl.Name(), func(b *testing.B) {
			reportThroughput(b, 4*dims.N())
			for i := 0; i < b.N; i++ {
				blob, err := pl.Compress(benchPlatform, data, dims, fzmod.Rel(1e-4))
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := fzmod.Decompress(benchPlatform, blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
