// Per-module micro-benchmarks for the substrate layers, the chunked
// executor's worker-budget scaling matrix, and a per-preset end-to-end
// roundtrip. Run:
//
//	go test -run '^$' -bench=. -benchmem
//
// The paper's tables and figures are regenerated by cmd/fzbench (see
// docs/REPRODUCTION.md), not here. Shapes, not absolute numbers, are the
// reproduction target: these run on a simulated accelerator, not the
// paper's H100/V100 testbed.
package fzmod_test

import (
	"context"
	"fmt"
	"testing"

	"fzmod"
	"fzmod/internal/bench"
	"fzmod/internal/device"
	"fzmod/internal/encoder/fzg"
	"fzmod/internal/encoder/huffman"
	"fzmod/internal/encoder/lzr"
	"fzmod/internal/histogram"
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
			if _, err := pl.Compress(benchPlatform, data, dims, eb); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range budgets {
		opts := fzmod.ChunkOpts{ChunkElems: chunkElems, Workers: workers}
		b.Run(fmt.Sprintf("compress/chunked-w%d", workers), func(b *testing.B) {
			reportThroughput(b, 4*dims.N())
			for i := 0; i < b.N; i++ {
				if _, _, err := pl.CompressChunkedReport(benchPlatform, data, dims, eb, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	monoBlob, err := pl.Compress(benchPlatform, data, dims, eb)
	if err != nil {
		b.Fatal(err)
	}
	chunkedBlob, _, err := pl.CompressChunkedReport(benchPlatform, data, dims, eb, fzmod.ChunkOpts{ChunkElems: chunkElems})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decompress/monolithic", func(b *testing.B) {
		reportThroughput(b, 4*dims.N())
		for i := 0; i < b.N; i++ {
			if _, _, _, err := fzmod.Decompress(context.Background(), benchPlatform, monoBlob, fzmod.Opts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range budgets {
		opts := fzmod.Opts{Workers: workers}
		b.Run(fmt.Sprintf("decompress/chunked-w%d", workers), func(b *testing.B) {
			reportThroughput(b, 4*dims.N())
			for i := 0; i < b.N; i++ {
				if _, _, _, err := fzmod.Decompress(context.Background(), benchPlatform, chunkedBlob, opts); err != nil {
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
				if _, _, _, err := fzmod.Decompress(context.Background(), benchPlatform, blob, fzmod.Opts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
