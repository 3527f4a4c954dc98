package fzmod_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"fzmod"
)

// exampleField synthesizes a smooth 32×32×16 field — the kind of
// autocorrelated data error-bounded compressors are built for.
func exampleField() ([]float32, fzmod.Dims) {
	dims := fzmod.Dims3(32, 32, 16)
	data := make([]float32, dims.N())
	for z := 0; z < dims.Z; z++ {
		for y := 0; y < dims.Y; y++ {
			for x := 0; x < dims.X; x++ {
				v := math.Sin(float64(x)/7) * math.Cos(float64(y)/9) * (1 + float64(z)/16)
				data[dims.Idx(x, y, z)] = float32(v)
			}
		}
	}
	return data, dims
}

// The basic roundtrip: compress under an absolute error bound, decompress,
// verify every value is within tolerance.
func Example() {
	platform := fzmod.NewPlatform()
	data, dims := exampleField()

	blob, err := fzmod.Default().Compress(platform, data, dims, fzmod.Abs(1e-3))
	if err != nil {
		panic(err)
	}
	back, gotDims, _, err := fzmod.Decompress(context.Background(), platform, blob, fzmod.Opts{})
	if err != nil {
		panic(err)
	}
	fmt.Println(gotDims, "first-violation:", fzmod.VerifyBound(data, back, 1e-3))
	// Output: 32x32x16 first-violation: -1
}

// ExampleChunkOpts compresses through the chunked graph explicitly: chunk
// granularity in elements (rounded to whole planes of the slowest
// dimension) and the operation's parallelism budget.
func ExampleChunkOpts() {
	platform := fzmod.NewPlatform()
	data, dims := exampleField()

	blob, _, err := fzmod.Default().CompressChunkedReport(platform, data, dims, fzmod.Abs(1e-3),
		fzmod.ChunkOpts{ChunkElems: dims.X * dims.Y * 4, Workers: 4})
	if err != nil {
		panic(err)
	}
	back, gotDims, _, err := fzmod.Decompress(context.Background(), platform, blob, fzmod.Opts{})
	if err != nil {
		panic(err)
	}
	fmt.Println(gotDims, "first-violation:", fzmod.VerifyBound(data, back, 1e-3))
	// Output: 32x32x16 first-violation: -1
}

// ExampleStreamOpts runs the out-of-core path: the field streams in from
// an io.Reader chunk by chunk and back out through
// DecompressStream, with resident memory bounded by the window, not the
// field size.
func ExampleStreamOpts() {
	platform := fzmod.NewPlatform()
	data, dims := exampleField()

	raw := new(bytes.Buffer)
	for _, v := range data {
		binary.Write(raw, binary.LittleEndian, v)
	}
	compressed := new(bytes.Buffer)
	_, err := fzmod.CompressStream(platform, fzmod.Default(), raw, dims, fzmod.Abs(1e-3), compressed,
		fzmod.StreamOpts{ChunkElems: dims.X * dims.Y * 4, Window: 2})
	if err != nil {
		panic(err)
	}
	restored := new(bytes.Buffer)
	gotDims, err := fzmod.DecompressStream(platform, compressed, restored, fzmod.StreamOpts{})
	if err != nil {
		panic(err)
	}
	fmt.Println(gotDims, restored.Len() == 4*dims.N())
	// Output: 32x32x16 true
}

// ExampleDecompress caps a full decompression's parallelism budget:
// Opts.Workers bounds the chunk-level scheduler width and every kernel
// launch.
func ExampleDecompress() {
	platform := fzmod.NewPlatform()
	data, dims := exampleField()

	blob, _, err := fzmod.Default().CompressChunkedReport(platform, data, dims, fzmod.Abs(1e-3),
		fzmod.ChunkOpts{ChunkElems: dims.X * dims.Y * 4})
	if err != nil {
		panic(err)
	}
	back, gotDims, _, err := fzmod.Decompress(context.Background(), platform, blob, fzmod.Opts{Workers: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(gotDims, "first-violation:", fzmod.VerifyBound(data, back, 1e-3))
	// Output: 32x32x16 first-violation: -1
}

// ExampleOpenRegion reads one subvolume out of a chunked container without
// decoding the rest: only the slab chunks the selection intersects are
// fetched and decoded.
func ExampleOpenRegion() {
	platform := fzmod.NewPlatform()
	data, dims := exampleField()

	blob, _, err := fzmod.Default().CompressChunkedReport(platform, data, dims, fzmod.Abs(1e-3),
		fzmod.ChunkOpts{ChunkElems: dims.X * dims.Y * 4}) // 4 chunks of 4 planes
	if err != nil {
		panic(err)
	}
	region, err := fzmod.OpenRegion(platform, fzmod.NewBytesFetcher(blob), fzmod.RegionOpts{})
	if err != nil {
		panic(err)
	}
	sel := fzmod.RegionSel{X0: 8, X1: 24, Y0: 8, Y1: 24, Z0: 5, Z1: 7}
	vals, report, err := region.ReadReportCtx(context.Background(), sel)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(vals), "values from", report.Region.Decoded, "of 4 chunks")
	// Output: 512 values from 1 of 4 chunks
}

// ExampleRegionOpts serves repeated reads through a shared slab cache: the
// second read of an already-decoded chunk is a pure cache hit.
func ExampleRegionOpts() {
	platform := fzmod.NewPlatform()
	data, dims := exampleField()

	blob, _, err := fzmod.Default().CompressChunkedReport(platform, data, dims, fzmod.Abs(1e-3),
		fzmod.ChunkOpts{ChunkElems: dims.X * dims.Y * 4})
	if err != nil {
		panic(err)
	}
	region, err := fzmod.OpenRegion(platform, fzmod.NewBytesFetcher(blob),
		fzmod.RegionOpts{Workers: 2, Cache: fzmod.NewSlabCache(64 << 20)})
	if err != nil {
		panic(err)
	}
	sel := fzmod.RegionSel{X0: 0, X1: 32, Y0: 0, Y1: 32, Z0: 2, Z1: 4}
	if _, _, err := region.ReadReport(sel); err != nil {
		panic(err)
	}
	_, report, err := region.ReadReport(sel)
	if err != nil {
		panic(err)
	}
	fmt.Println("hits:", report.Region.CacheHits, "decoded:", report.Region.Decoded)
	// Output: hits: 1 decoded: 0
}
