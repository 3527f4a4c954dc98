package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/metrics"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

// chunkField returns a field large enough to split into several slabs with
// a small ChunkElems setting.
func chunkField() ([]float32, grid.Dims) {
	dims := grid.D3(24, 20, 32)
	return sdrbench.GenHURR(dims, 31), dims
}

func TestCompressChunkedRoundtrip(t *testing.T) {
	data, dims := chunkField()
	eb := preprocess.RelBound(1e-4)
	for _, pl := range Presets() {
		opts := ChunkOpts{ChunkElems: dims.PlaneElems() * 8, Workers: 4}
		blob, err := pl.CompressChunked(tp, data, dims, eb, opts)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if !fzio.IsChunked(blob) {
			t.Fatalf("%s: expected a chunked container", pl.Name())
		}
		cc, err := fzio.UnmarshalChunked(blob)
		if err != nil {
			t.Fatal(err)
		}
		if want := dims.SlowExtent() / 8; cc.NumChunks() != want {
			t.Errorf("%s: %d chunks, want %d", pl.Name(), cc.NumChunks(), want)
		}
		got, gotDims, err := Decompress(tp, blob)
		if err != nil {
			t.Fatalf("%s decompress: %v", pl.Name(), err)
		}
		if gotDims != dims {
			t.Fatalf("%s dims %v, want %v", pl.Name(), gotDims, dims)
		}
		absEB, _, _ := preprocess.Resolve(tp, device.Accel, data, eb)
		if i := metrics.VerifyBound(data, got, absEB); i != -1 {
			t.Errorf("%s: bound violated at %d", pl.Name(), i)
		}
	}
}

// TestChunkedMatchesMonolithicPerChunk is the equivalence check the chunked
// executor promises: with the globally resolved absolute bound, each
// chunk's reconstruction is bit-exact with the monolithic pipeline run on
// that same slab.
func TestChunkedMatchesMonolithicPerChunk(t *testing.T) {
	data, dims := chunkField()
	eb := preprocess.RelBound(1e-4)
	pl := NewDefault()
	planes := 8
	opts := ChunkOpts{ChunkElems: dims.PlaneElems() * planes, Workers: 3}
	blob, err := pl.CompressChunked(tp, data, dims, eb, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(tp, blob)
	if err != nil {
		t.Fatal(err)
	}
	absEB, _, err := preprocess.Resolve(tp, device.Accel, data, eb)
	if err != nil {
		t.Fatal(err)
	}
	for i, sl := range grid.SplitSlabs(dims, planes) {
		chunk := data[sl.Lo : sl.Lo+sl.Dims.N()]
		monoBlob, err := pl.CompressMonolithic(tp, chunk, sl.Dims, preprocess.AbsBound(absEB))
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := Decompress(tp, monoBlob)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[sl.Lo+j] != want[j] {
				t.Fatalf("chunk %d: value %d differs from monolithic path", i, j)
			}
		}
	}
}

func TestChunkedDeterministic(t *testing.T) {
	data, dims := chunkField()
	eb := preprocess.RelBound(1e-3)
	opts := ChunkOpts{ChunkElems: dims.PlaneElems() * 5, Workers: 4}
	a, err := NewDefault().CompressChunked(tp, data, dims, eb, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDefault().CompressChunked(tp, data, dims, eb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("chunked compression is nondeterministic")
	}
	// Worker count must not change the bytes, only the schedule.
	c, err := NewDefault().CompressChunked(tp, data, dims, eb, ChunkOpts{ChunkElems: opts.ChunkElems, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Error("worker count changed the compressed bytes")
	}
}

func TestChunkedSingleSlabFallsBackToMonolithic(t *testing.T) {
	data, dims := testField()
	blob, err := NewDefault().CompressChunked(tp, data, dims, preprocess.RelBound(1e-4), ChunkOpts{ChunkElems: dims.N() * 2})
	if err != nil {
		t.Fatal(err)
	}
	if fzio.IsChunked(blob) {
		t.Error("single-slab input should produce a monolithic container")
	}
	if _, _, err := Decompress(tp, blob); err != nil {
		t.Fatal(err)
	}
}

func TestChunkedWithSecondary(t *testing.T) {
	data, dims := chunkField()
	pl := NewDefault().WithSecondary(LZSecondary{})
	blob, err := pl.CompressChunked(tp, data, dims, preprocess.RelBound(1e-3), ChunkOpts{ChunkElems: dims.PlaneElems() * 8})
	if err != nil {
		t.Fatal(err)
	}
	if !fzio.IsChunked(blob) {
		t.Fatal("expected chunked container")
	}
	got, gotDims, err := Decompress(tp, blob)
	if err != nil {
		t.Fatal(err)
	}
	if gotDims != dims || len(got) != dims.N() {
		t.Fatalf("bad geometry %v", gotDims)
	}
}

func TestChunkedCorruptChunkSurfacesError(t *testing.T) {
	data, dims := chunkField()
	blob, err := NewDefault().CompressChunked(tp, data, dims, preprocess.RelBound(1e-3), ChunkOpts{ChunkElems: dims.PlaneElems() * 8})
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), blob...)
	mut[len(mut)-10] ^= 0x5A // payload region of the last chunk
	if _, _, err := Decompress(tp, mut); err == nil {
		t.Error("corrupt chunk payload should fail decompression")
	}
}

func TestCompressAutoChunksLargeInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("large allocation")
	}
	// A field right at the auto-chunk threshold: 16 Mi elements (64 MiB).
	dims := grid.D3(256, 256, 256)
	data := sdrbench.GenCESM(dims, 5)
	blob, err := NewSpeed().Compress(tp, data, dims, preprocess.RelBound(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	if !fzio.IsChunked(blob) {
		t.Error("Compress should auto-chunk at AutoChunkElems")
	}
	got, gotDims, err := Decompress(tp, blob)
	if err != nil {
		t.Fatal(err)
	}
	if gotDims != dims {
		t.Fatalf("dims %v, want %v", gotDims, dims)
	}
	absEB, _, _ := preprocess.Resolve(tp, device.Accel, data, preprocess.RelBound(1e-2))
	if i := metrics.VerifyBound(data, got, absEB); i != -1 {
		t.Errorf("bound violated at %d", i)
	}
}

// TestWriteRefusesWhatReadRefuses: the FORMAT.md §1.1 geometry limits bind
// both write lowerings exactly as they bind every reader. Geometry beyond
// them is a typed error before a task is declared, a byte sliced or a byte
// written — dims whose product wraps int used to panic slicing the input,
// and a chunk count above 2^20 used to run for a minute and return an
// artifact no reader accepts.
func TestWriteRefusesWhatReadRefuses(t *testing.T) {
	pl := NewDefault()
	eb := preprocess.AbsBound(1e-2)
	for _, tc := range []struct {
		name  string
		dims  grid.Dims
		elems int // values actually supplied
		chunk int
	}{
		{"dims product wraps to 64", grid.D2(4611686018427387920, 4), 64, 0},
		{"dims product wraps to 0", grid.D2(1<<32, 1<<32), 0, 0},
		{"dims product 2^34+1", grid.D1(1<<34 + 1), 16, 0},
		{"2^20+8 chunks", grid.D1(1<<20 + 8), 1<<20 + 8, 1},
		{"nominal planes above 2^34", grid.D1(4096), 4096, 1<<34 + 1},
	} {
		data := make([]float32, tc.elems)
		start := time.Now()
		blob, err := pl.CompressChunked(tp, data, tc.dims, eb, ChunkOpts{ChunkElems: tc.chunk})
		if !errors.Is(err, grid.ErrLimit) || blob != nil {
			t.Errorf("%s: CompressChunked = %d bytes, %v; want an error wrapping grid.ErrLimit", tc.name, len(blob), err)
		}
		var out bytes.Buffer
		n, err := pl.CompressStream(tp, bytes.NewReader(device.F32Bytes(data)), tc.dims, eb, &out, StreamOpts{ChunkElems: tc.chunk})
		if !errors.Is(err, grid.ErrLimit) || n != 0 || out.Len() != 0 {
			t.Errorf("%s: CompressStream wrote %d bytes, %v; want nothing written and an error wrapping grid.ErrLimit", tc.name, out.Len(), err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: refused only after %v", tc.name, d)
		}
	}

	// The limits themselves are admitted: 2^34 elements, 2^20 chunks.
	for _, dims := range []grid.Dims{grid.D1(1 << 34), grid.D2(1<<14, 1<<20)} {
		if _, err := ChunkPlanes(dims, dims.N()>>20); err != nil {
			t.Errorf("%v in 2^20 chunks refused: %v", dims, err)
		}
	}
}

// TestWorkersOneResolvesSerially holds the Opts.Workers contract for the
// whole operation, error-bound resolution included: a Workers=1 compress
// on a fresh platform must never start the platform's grid workers (they
// live until Close) and must join its scheduler workers before returning,
// so the goroutine count is unchanged. Resolve's min/max reduction over
// the whole field splits into 65,536-element blocks, so the field is two
// blocks long.
func TestWorkersOneResolvesSerially(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	dims := grid.D3(64, 64, 32)
	data := sdrbench.GenHURR(dims, 5)
	before := runtime.NumGoroutine()
	if _, err := NewDefault().CompressChunked(p, data, dims, preprocess.RelBound(1e-3),
		ChunkOpts{Workers: 1, ChunkElems: dims.N() / 4}); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("a Workers=1 compress left %d goroutines running, want %d", after, before)
	}
}
