package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/metrics"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

// streamField builds the shared test workload: a small NYX field cut into
// several chunks so a narrow window genuinely cycles.
func streamField() ([]float32, grid.Dims, int) {
	dims := grid.D3(16, 16, 24)
	chunkElems := 16 * 16 * 4 // 4 planes per chunk, 6 chunks
	return sdrbench.GenNYX(dims, 11), dims, chunkElems
}

// TestCompressStreamEquivalence: for every preset, with and without the
// secondary encoder, the streamed container reassembles bit-identically to
// the in-memory chunked container — the guarantee that the out-of-core
// path is the same compressor, not a variant.
func TestCompressStreamEquivalence(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	data, dims, chunkElems := streamField()
	for _, base := range Presets() {
		for _, secondary := range []bool{false, true} {
			pl := base
			name := pl.Name()
			if secondary {
				pl = pl.WithSecondary(LZSecondary{})
				name = pl.Name()
			}
			t.Run(name, func(t *testing.T) {
				absEB, _, err := preprocess.Resolve(p, device.Host, data, preprocess.RelBound(1e-3))
				if err != nil {
					t.Fatal(err)
				}
				eb := preprocess.AbsBound(absEB)
				chunked, _, err := pl.CompressChunkedReport(p, data, dims, eb, ChunkOpts{ChunkElems: chunkElems})
				if err != nil {
					t.Fatal(err)
				}
				if !fzio.IsChunked(chunked) {
					t.Fatal("reference path did not produce a chunked container")
				}
				var streamBuf bytes.Buffer
				written, err := pl.CompressStreamCtx(context.Background(), p, bytes.NewReader(device.F32Bytes(data)), dims, eb,
					&streamBuf, StreamOpts{ChunkElems: chunkElems, Window: 2})
				if err != nil {
					t.Fatal(err)
				}
				if written != int64(streamBuf.Len()) {
					t.Errorf("written = %d, buffer has %d", written, streamBuf.Len())
				}
				if !fzio.IsStream(streamBuf.Bytes()) {
					t.Fatal("CompressStreamCtx did not produce a stream container")
				}
				re, err := fzio.ReassembleChunked(bytes.NewReader(streamBuf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(re, chunked) {
					t.Error("reassembled stream differs from CompressChunkedReport output")
				}

				// The streaming read path must reconstruct bit-identically
				// to the in-memory decoder.
				want, wantDims, _, err := DecompressReportWithOpts(p, chunked, Opts{})
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				gotDims, err := DecompressStreamCtx(context.Background(), p, bytes.NewReader(streamBuf.Bytes()), &out, StreamOpts{Window: 2})
				if err != nil {
					t.Fatal(err)
				}
				if gotDims != wantDims {
					t.Fatalf("dims %v, want %v", gotDims, wantDims)
				}
				if !bytes.Equal(out.Bytes(), device.F32Bytes(want)) {
					t.Error("streamed reconstruction differs from in-memory reconstruction")
				}
				got := device.BytesF32(out.Bytes())
				if i := metrics.VerifyBound(data, got, absEB); i != -1 {
					t.Errorf("bound violated at index %d", i)
				}
			})
		}
	}
}

// TestCompressStreamWindows: every window width (including 1, a width
// larger than the chunk count, and one that does not divide it) produces
// the identical stream.
func TestCompressStreamWindows(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	data, dims, chunkElems := streamField()
	pl := NewDefault()
	absEB, _, err := preprocess.Resolve(p, device.Host, data, preprocess.RelBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	eb := preprocess.AbsBound(absEB)
	var ref bytes.Buffer
	if _, err := pl.CompressStreamCtx(context.Background(), p, bytes.NewReader(device.F32Bytes(data)), dims, eb,
		&ref, StreamOpts{ChunkElems: chunkElems, Window: 2}); err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 3, 4, 99} {
		var buf bytes.Buffer
		if _, err := pl.CompressStreamCtx(context.Background(), p, bytes.NewReader(device.F32Bytes(data)), dims, eb,
			&buf, StreamOpts{ChunkElems: chunkElems, Window: window}); err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Errorf("window %d: stream differs from window 2", window)
		}
		var out bytes.Buffer
		if _, err := DecompressStreamCtx(context.Background(), p, bytes.NewReader(buf.Bytes()), &out, StreamOpts{Window: window}); err != nil {
			t.Fatalf("window %d decompress: %v", window, err)
		}
		got := device.BytesF32(out.Bytes())
		if i := metrics.VerifyBound(data, got, absEB); i != -1 {
			t.Errorf("window %d: bound violated at %d", window, i)
		}
	}
}

// TestCompressStreamSingleChunk: a field that fits one chunk still streams
// (unlike CompressChunkedReportCtx, which falls back to a monolithic container, the
// stream format always frames).
func TestCompressStreamSingleChunk(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	dims := grid.D3(8, 8, 4)
	data := sdrbench.GenNYX(dims, 3)
	absEB, _, err := preprocess.Resolve(p, device.Host, data, preprocess.RelBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := NewDefault().CompressStreamCtx(context.Background(), p, bytes.NewReader(device.F32Bytes(data)), dims,
		preprocess.AbsBound(absEB), &buf, StreamOpts{}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	gotDims, err := DecompressStreamCtx(context.Background(), p, bytes.NewReader(buf.Bytes()), &out, StreamOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if gotDims != dims {
		t.Fatalf("dims %v, want %v", gotDims, dims)
	}
	got := device.BytesF32(out.Bytes())
	if i := metrics.VerifyBound(data, got, absEB); i != -1 {
		t.Errorf("bound violated at %d", i)
	}
}

func TestCompressStreamErrors(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	pl := NewDefault()
	dims := grid.D3(8, 8, 8)
	data := sdrbench.GenNYX(dims, 3)
	raw := device.F32Bytes(data)
	absEB, _, err := preprocess.Resolve(p, device.Host, data, preprocess.RelBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	eb := preprocess.AbsBound(absEB)

	// Relative bounds need the whole field; streaming must refuse.
	if _, err := pl.CompressStreamCtx(context.Background(), p, bytes.NewReader(raw), dims, preprocess.RelBound(1e-3), io.Discard, StreamOpts{}); err == nil {
		t.Error("relative bound should be rejected")
	}
	if _, err := pl.CompressStreamCtx(context.Background(), p, bytes.NewReader(raw), dims, preprocess.AbsBound(0), io.Discard, StreamOpts{}); err == nil {
		t.Error("zero bound should be rejected")
	}
	if _, err := pl.CompressStreamCtx(context.Background(), p, bytes.NewReader(raw), grid.Dims{}, eb, io.Discard, StreamOpts{}); err == nil {
		t.Error("invalid dims should be rejected")
	}
	// Input shorter than dims: the slab read must fail cleanly.
	if _, err := pl.CompressStreamCtx(context.Background(), p, bytes.NewReader(raw[:len(raw)/2]), dims, eb, io.Discard, StreamOpts{ChunkElems: 128}); err == nil {
		t.Error("short input should be rejected")
	}
	// Truncated stream into the decoder.
	var buf bytes.Buffer
	if _, err := pl.CompressStreamCtx(context.Background(), p, bytes.NewReader(raw), dims, eb, &buf, StreamOpts{ChunkElems: 128}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressStreamCtx(context.Background(), p, bytes.NewReader(buf.Bytes()[:buf.Len()-9]), io.Discard, StreamOpts{}); err == nil {
		t.Error("truncated stream should be rejected")
	}
	if _, err := DecompressStreamCtx(context.Background(), p, bytes.NewReader([]byte("FZMDnope")), io.Discard, StreamOpts{}); err == nil {
		t.Error("non-stream input should be rejected")
	}
}

// TestCompressStreamMemoryBounded is the out-of-core guarantee: steady-state
// compression of a field 8× larger than the window allocates a small
// multiple of the window, not of the field. The first run warms the
// platform pool, whose free lists keep every returned slab, so the
// measured runs reuse the warm slabs whatever ran before this test.
func TestCompressStreamMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	p := device.NewTestPlatform()
	defer p.Close()
	dims := grid.D3(64, 64, 64) // 256 Ki elements, 1 MiB
	data := sdrbench.GenNYX(dims, 7)
	raw := device.F32Bytes(data)
	chunkElems := dims.N() / 8 // 8 chunks
	opts := StreamOpts{ChunkElems: chunkElems, Window: 1}
	windowBytes := 4 * chunkElems // one slab resident at a time
	fieldBytes := len(raw)
	pl := NewDefault()

	absEB, _, err := preprocess.Resolve(p, device.Host, data, preprocess.RelBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := pl.CompressStreamCtx(context.Background(), p, bytes.NewReader(raw), dims, preprocess.AbsBound(absEB), io.Discard, opts); err != nil {
			t.Fatal(err)
		}
	}
	run()
	_, bytesPerOp := device.MeasureAllocs(run)

	// The pin: comfortably below the field (the in-memory path cannot go
	// below 1× field just for the input) and a small multiple of the
	// window. Both margins are generous; the steady-state measurement on a
	// warm pool sits far under them.
	if bytesPerOp > uint64(fieldBytes)/2 {
		t.Errorf("steady-state bytes/op = %d, want < field/2 = %d (field %d bytes)",
			bytesPerOp, fieldBytes/2, fieldBytes)
	}
	if bytesPerOp > uint64(3*windowBytes) {
		t.Errorf("steady-state bytes/op = %d, want < 3x window = %d (window %d bytes)",
			bytesPerOp, 3*windowBytes, windowBytes)
	}
	t.Logf("field %d bytes, window %d bytes, steady-state bytes/op %d", fieldBytes, windowBytes, bytesPerOp)
}

// errInjected is the cause every stream fault below injects.
var errInjected = errors.New("injected fault")

// failReader yields the first n bytes of r, then fails with errInjected.
type failReader struct {
	r io.Reader
	n int
}

func (f *failReader) Read(b []byte) (int, error) {
	if f.n <= 0 {
		return 0, errInjected
	}
	k, err := f.r.Read(b[:min(len(b), f.n)])
	f.n -= k
	return k, err
}

// failWriter accepts n Write calls, then fails every later one with
// errInjected.
type failWriter struct{ n int }

func (f *failWriter) Write(b []byte) (int, error) {
	if f.n == 0 {
		return 0, errInjected
	}
	f.n--
	return len(b), nil
}

// TestStreamFaults walks every failure point of both stream doors' input
// and output: a reader that fails after k bytes and a writer that fails on
// its k-th Write, for k = 0, 1, … until the operation succeeds, over a
// 3-chunk field at every mix of one or two workers and a window of one or
// two chunks. Each failed run must return an error wrapping the injected
// cause, give every pooled slab back and leave no goroutine behind.
func TestStreamFaults(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	dims := grid.D3(8, 8, 6)
	data := sdrbench.GenNYX(dims, 5)
	raw := device.F32Bytes(data)
	absEB, _, err := preprocess.Resolve(p, device.Host, data, preprocess.RelBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	eb := preprocess.AbsBound(absEB)
	pl := NewDefault()
	gctx := context.Background()
	compress := func(r io.Reader, w io.Writer, opts StreamOpts) error {
		_, err := pl.CompressStreamCtx(gctx, p, r, dims, eb, w, opts)
		return err
	}
	decompress := func(r io.Reader, w io.Writer, opts StreamOpts) error {
		_, err := DecompressStreamCtx(gctx, p, r, w, opts)
		return err
	}
	var stream bytes.Buffer
	if err := compress(bytes.NewReader(raw), &stream, StreamOpts{ChunkElems: 2 * dims.PlaneElems()}); err != nil {
		t.Fatal(err)
	}

	faults := []struct {
		name string
		op   func(r io.Reader, w io.Writer, opts StreamOpts) error
		in   []byte
		// step is the stride of k for a reader fault: the compress input
		// fails the same way at every byte of a slab read, while every
		// byte of the stream meets a different parse step.
		step   int
		writer bool
	}{
		{name: "compress/reader", op: compress, in: raw, step: 61},
		{name: "compress/writer", op: compress, in: raw, writer: true},
		{name: "decompress/reader", op: decompress, in: stream.Bytes(), step: 1},
		{name: "decompress/writer", op: decompress, in: stream.Bytes(), writer: true},
	}
	configs := []StreamOpts{}
	for _, workers := range []int{1, 2} {
		for _, window := range []int{1, 2} {
			opts := StreamOpts{ChunkElems: 2 * dims.PlaneElems(), Workers: workers, Window: window}
			configs = append(configs, opts)
			// Warm every path before the goroutine baseline.
			if err := decompress(bytes.NewReader(stream.Bytes()), io.Discard, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, f := range faults {
		for _, opts := range configs {
			t.Run(fmt.Sprintf("%s/w%d/win%d", f.name, opts.Workers, opts.Window), func(t *testing.T) {
				before := runtime.NumGoroutine()
				for k := 0; ; k++ {
					r, w := io.Reader(bytes.NewReader(f.in)), io.Writer(io.Discard)
					if f.writer {
						w = &failWriter{n: k}
					} else {
						r = &failReader{r: r, n: k * f.step}
					}
					err := f.op(r, w, opts)
					if st := p.ScratchPool().Stats(); st.Gets != st.Puts {
						t.Fatalf("k=%d: scratch pool unbalanced: gets=%d puts=%d", k, st.Gets, st.Puts)
					}
					if n := settledGoroutines(before); n > before {
						t.Fatalf("k=%d: %d goroutines, %d before", k, n, before)
					}
					if err == nil {
						return
					}
					if !errors.Is(err, errInjected) {
						t.Fatalf("k=%d: error %q does not wrap the injected cause", k, err)
					}
				}
			})
		}
	}
}

// TestDecompressStreamRetention: the stream's one graph outlives every
// chunk, so a chunk's decoded values and codes must become garbage once it
// is written. The live heap sampled at each Write grows far less than the
// field while 64 low-ratio chunks stream through a window of 2.
func TestDecompressStreamRetention(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	const n = 1 << 20 // 4 MiB of float32
	data := sdrbench.GenHACC(n, 3)
	dims := grid.D1(n)
	var stream bytes.Buffer
	if _, err := NewDefault().CompressStreamCtx(context.Background(), p, bytes.NewReader(device.F32Bytes(data)), dims,
		preprocess.AbsBound(1e-3), &stream, StreamOpts{ChunkElems: n / 64}); err != nil {
		t.Fatal(err)
	}
	w := &heapSampler{}
	if _, err := DecompressStreamCtx(context.Background(), p, bytes.NewReader(stream.Bytes()), w, StreamOpts{Window: 2}); err != nil {
		t.Fatal(err)
	}
	if w.writes < 64 {
		t.Fatalf("%d writes, want one per chunk at least", w.writes)
	}
	if growth, field := w.max-w.first, uint64(4*n); growth > field/4 {
		t.Errorf("live heap grew %d bytes over the stream, want < field/4 = %d", growth, field/4)
	}
	t.Logf("live heap grew %d bytes over %d writes; stream %d bytes", w.max-w.first, w.writes, stream.Len())
}

// heapSampler discards what it is written and samples the live heap at
// every Write.
type heapSampler struct {
	writes     int
	first, max uint64
}

func (h *heapSampler) Write(b []byte) (int, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if h.writes == 0 {
		h.first = ms.HeapAlloc
	}
	h.max = max(h.max, ms.HeapAlloc)
	h.writes++
	return len(b), nil
}
