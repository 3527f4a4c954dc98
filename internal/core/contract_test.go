package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
	"fzmod/internal/stf"
)

// This file pins the module contract's buffer handling: modules write into
// pooled slabs and caller destinations, so every failure point must return
// what it checked out, a dirty slab must not leak into the output, a code
// stream must fill its destination exactly, and a warm read must not
// allocate its intermediates afresh.

// kthDone is a context whose Done channel is closed from its k-th call on:
// the executor polls it once per task dispatch, so k = 1, 2, … cancels the
// graph at each of its dispatch points in turn.
type kthDone struct {
	context.Context
	k, calls atomic.Int64
	open     chan struct{}
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func newKthDone(k int) *kthDone {
	c := &kthDone{Context: context.Background(), open: make(chan struct{})}
	c.k.Store(int64(k))
	return c
}

func (c *kthDone) Done() <-chan struct{} {
	if c.calls.Add(1) >= c.k.Load() {
		return closedDone
	}
	return c.open
}

func (c *kthDone) Err() error {
	if c.calls.Load() >= c.k.Load() {
		return context.Canceled
	}
	return nil
}

// sameBits fails unless got and want hold the same float32 bit patterns.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: value %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestCancelFaults walks every cancellation point of every in-memory door:
// a context whose Done is closed from its k-th call on, for k = 1, 2, …
// until the operation succeeds, over a 3-chunk field at one and two
// workers. Each run must either succeed with the uncanceled result or fail
// with context.Canceled, give every pooled slab back — a cancel landing
// between decode and reconstruct strands a code slab the door must sweep —
// and leave no goroutine behind.
func TestCancelFaults(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	dims := grid.D3(8, 8, 6)
	data := sdrbench.GenNYX(dims, 5)
	eb := preprocess.RelBound(1e-3)
	pl := NewDefault()
	chunked := Opts{ChunkElems: 2 * dims.PlaneElems()}
	blob, _, err := pl.CompressChunkedReport(p, data, dims, eb, chunked)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := DecompressReportWithOpts(p, blob, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	region := func(gctx context.Context, opts Opts) error {
		r, err := OpenRegion(p, fzio.NewBytesFetcher(blob), opts)
		if err != nil {
			return err
		}
		vals, _, err := r.ReadReportCtx(gctx, FullRegion(dims))
		if err == nil {
			sameBits(t, "region", vals, want)
		} else if vals != nil {
			t.Fatalf("canceled region read returned %d values", len(vals))
		}
		return err
	}
	// allocCanceled counts the decompress runs whose cancellation landed
	// before the alloc task ran: k = 1 cancels every dispatch, alloc's too,
	// on every door, so the loop below always reaches one.
	allocCanceled := 0

	faults := []struct {
		name string
		// op runs the door under gctx and, when it succeeds, checks the
		// result against the uncanceled one.
		op func(gctx context.Context, workers int) error
	}{
		{"decompress", func(gctx context.Context, workers int) error {
			vals, _, report, err := DecompressReportWithOptsCtx(gctx, p, blob, Opts{Workers: workers})
			if err == nil {
				sameBits(t, "decompress", vals, want)
			} else if vals != nil {
				t.Fatalf("canceled decompress returned %d values", len(vals))
			} else if !allocRan(report) {
				allocCanceled++
			}
			return err
		}},
		{"region", func(gctx context.Context, workers int) error {
			return region(gctx, Opts{Workers: workers})
		}},
		{"region/cache", func(gctx context.Context, workers int) error {
			return region(gctx, Opts{Workers: workers, Cache: NewSlabCache(1 << 20)})
		}},
		{"salvage", func(gctx context.Context, workers int) error {
			vals, mask, err := DecompressSalvageCtx(gctx, p, fzio.NewBytesFetcher(blob), Opts{Workers: workers})
			if err == nil {
				if mask.Any() {
					t.Fatalf("salvage of an intact container masks %d planes", mask.DamagedPlanes())
				}
				sameBits(t, "salvage", vals, want)
			} else if vals != nil || mask != nil {
				t.Fatalf("canceled salvage returned %d values and mask %v", len(vals), mask)
			}
			return err
		}},
		{"compress", func(gctx context.Context, workers int) error {
			opts := chunked
			opts.Workers = workers
			out, _, err := pl.CompressChunkedReportCtx(gctx, p, data, dims, eb, opts)
			if err == nil && !bytes.Equal(out, blob) {
				t.Fatalf("compress: %d bytes differ from the uncanceled %d", len(out), len(blob))
			}
			return err
		}},
	}
	for _, f := range faults {
		for _, workers := range []int{1, 2} {
			// Warm every path before the goroutine baseline.
			if err := f.op(context.Background(), workers); err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/w%d", f.name, workers), func(t *testing.T) {
				before := runtime.NumGoroutine()
				for k := 1; ; k++ {
					err := f.op(newKthDone(k), workers)
					if st := p.ScratchPool().Stats(); st.Gets != st.Puts {
						t.Fatalf("k=%d: scratch pool unbalanced: gets=%d puts=%d", k, st.Gets, st.Puts)
					}
					if n := settledGoroutines(before); n > before {
						t.Fatalf("k=%d: %d goroutines, %d before", k, n, before)
					}
					if err == nil {
						if k == 1 {
							t.Fatal("the operation never polled its context")
						}
						return
					}
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("k=%d: error %q is not context.Canceled", k, err)
					}
					if k == 1000 {
						t.Fatal("still canceled at k=1000")
					}
				}
			})
		}
	}
	if allocCanceled == 0 {
		t.Error("no decompress cancellation landed before the alloc task ran")
	}
}

// allocRan reports whether a read graph's alloc task started.
func allocRan(report *ExecReport) bool {
	for _, tt := range report.Trace {
		if tt.Name == "alloc" {
			return !tt.Start.IsZero()
		}
	}
	return false
}

// panicFetcher serves an artifact's bytes but panics on a read at offset
// at, like a faulty user-supplied ChunkFetcher.
type panicFetcher struct {
	fzio.ChunkFetcher
	at int64
}

func (f panicFetcher) ReadRange(off int64, n int) ([]byte, error) {
	if off == f.at {
		panic("fetcher fault")
	}
	return f.ChunkFetcher.ReadRange(off, n)
}

// TestTaskPanicTyped: a panic inside a read graph — here a region fetcher
// that panics on chunk 1's payload while the alloc task and the other
// chunks run — surfaces as a *stf.PanicError naming the task, with no
// output, every pooled slab back and no single flight left open: a later
// read of the same slab through the cache succeeds.
func TestTaskPanicTyped(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	data, dims := chunkField()
	blob, _, err := NewDefault().CompressChunkedReport(p, data, dims, preprocess.RelBound(1e-4), Opts{ChunkElems: 8 * dims.PlaneElems()})
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := DecompressReportWithOpts(p, blob, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}
	faulty := panicFetcher{fzio.NewBytesFetcher(blob), int64(ix.Chunks[1].Offset)}
	for _, workers := range []int{1, 2} {
		for _, cache := range []*SlabCache{nil, NewSlabCache(1 << 30)} {
			r, err := OpenRegion(p, faulty, Opts{Workers: workers, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			vals, _, err := r.ReadReportCtx(context.Background(), FullRegion(dims))
			var pe *stf.PanicError
			if !errors.As(err, &pe) || pe.Task != "c1.fetch" || pe.Value != "fetcher fault" {
				t.Fatalf("w%d cache=%v: err = %v, want a *stf.PanicError of c1.fetch", workers, cache != nil, err)
			}
			if vals != nil {
				t.Errorf("w%d cache=%v: a panicked read returned %d values", workers, cache != nil, len(vals))
			}
			if st := p.ScratchPool().Stats(); st.Gets != st.Puts {
				t.Fatalf("w%d cache=%v: scratch pool unbalanced: gets=%d puts=%d", workers, cache != nil, st.Gets, st.Puts)
			}
			if cache == nil {
				continue
			}
			if n := cache.Stats().Flights; n != 0 {
				t.Errorf("w%d: %d single flights left open", workers, n)
			}
			healthy, err := OpenRegion(p, fzio.NewBytesFetcher(blob), Opts{Workers: workers, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			vals, _, err = healthy.ReadReportCtx(context.Background(), FullRegion(dims))
			if err != nil {
				t.Fatalf("w%d: read after the panic: %v", workers, err)
			}
			sameBits(t, "read after the panic", vals, want)
		}
	}
}

// dirtySlabs checks out n slabs of each size as both uint16 and float32,
// fills them with sentinels (0xFFFF codes, NaN values) and returns them, so
// the next checkouts of those size classes hand out dirty memory.
func dirtySlabs(p *device.Platform, n int, sizes ...int) {
	bp := p.ScratchPool()
	for _, size := range sizes {
		var u16 []*device.Slab[uint16]
		var f32 []*device.Slab[float32]
		for i := 0; i < n; i++ {
			u, f := bp.GetU16(size, false), bp.GetF32(size, false)
			for j := range u.Data {
				u.Data[j] = 0xFFFF
			}
			for j := range f.Data {
				f.Data[j] = float32(math.NaN())
			}
			u16, f32 = append(u16, u), append(f32, f)
		}
		for i := range u16 {
			bp.PutU16(u16[i])
			bp.PutF32(f32[i])
		}
	}
}

// TestDirtySlabs: a pooled buffer may hold any bytes. Before each compress,
// decompress and stream decompress through every preset, the u16 and f32
// slab sizes the operation takes are filled with sentinels; the container
// bytes and decoded values must equal a clean platform's.
func TestDirtySlabs(t *testing.T) {
	data, dims := chunkField()
	eb := preprocess.RelBound(1e-4)
	opts := Opts{ChunkElems: 12 * dims.PlaneElems(), Workers: 2} // chunks of 12, 12 and 8 planes
	sizes := []int{12 * dims.PlaneElems(), 8 * dims.PlaneElems()}
	for _, pl := range Presets() {
		t.Run(pl.Name(), func(t *testing.T) {
			clean, dirty := device.NewTestPlatform(), device.NewTestPlatform()
			defer clean.Close()
			defer dirty.Close()
			run := func(p *device.Platform) ([]byte, []float32, []byte) {
				blob, _, err := pl.CompressChunkedReport(p, data, dims, eb, opts)
				if err != nil {
					t.Fatal(err)
				}
				if p == dirty {
					dirtySlabs(p, 4, sizes...)
				}
				vals, _, _, err := DecompressReportWithOpts(p, blob, opts)
				if err != nil {
					t.Fatal(err)
				}
				if p == dirty {
					dirtySlabs(p, 4, sizes...)
				}
				var out bytes.Buffer
				if _, err := DecompressStreamCtx(context.Background(), p, bytes.NewReader(streamFromChunked(t, blob)), &out, opts); err != nil {
					t.Fatal(err)
				}
				return blob, vals, out.Bytes()
			}
			wantBlob, wantVals, wantRaw := run(clean)
			dirtySlabs(dirty, 4, sizes...)
			blob, vals, raw := run(dirty)
			if !bytes.Equal(blob, wantBlob) {
				t.Fatalf("container from dirty slabs differs (%d vs %d bytes)", len(blob), len(wantBlob))
			}
			sameBits(t, "decompress", vals, wantVals)
			if !bytes.Equal(raw, wantRaw) {
				t.Fatal("stream decompress from dirty slabs differs")
			}
		})
	}
}

// TestDecodeCountMismatch: a valid monolithic chunk whose header claims one
// element more than its code stream holds is refused by the code decoder,
// through Decompress and a region read, with an error naming the count,
// and every slab goes back.
func TestDecodeCountMismatch(t *testing.T) {
	const n = 5000
	data := sdrbench.GenHACC(n, 3)
	for _, pl := range []*Pipeline{NewDefault(), NewSpeed()} {
		p := device.NewTestPlatform()
		blob, _, err := pl.CompressChunkedReport(p, data, grid.D1(n), preprocess.AbsBound(1e-3), Opts{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := fzio.Unmarshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		c.Header.Dims = grid.D1(n + 1)
		if blob, err = c.Marshal(); err != nil {
			t.Fatal(err)
		}
		check := func(door string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), strconv.Itoa(n)) {
				t.Errorf("%s %s: err = %v, want a refusal naming %d codes", pl.Name(), door, err, n)
			}
			if st := p.ScratchPool().Stats(); st.Gets != st.Puts {
				t.Errorf("%s %s: scratch pool unbalanced: gets=%d puts=%d", pl.Name(), door, st.Gets, st.Puts)
			}
		}
		_, _, _, err = DecompressReportWithOpts(p, blob, Opts{})
		check("decompress", err)
		r, err := OpenRegion(p, fzio.NewBytesFetcher(blob), Opts{})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = r.ReadReportCtx(context.Background(), FullRegion(r.Dims()))
		check("region", err)
		p.Close()
	}
}

// TestDecompressAllocs pins what a warm Workers=1 read allocates, in bytes
// per field byte, on 1 MiB fields of 8 chunks: the code arrays come from
// the pool and the values land in the caller's field, so Decompress
// allocates its output field (plus spline's float64 work field on cesm)
// and the stream door, whose destinations are pooled too, no field-sized
// buffer. The rest, about 0.3 × at this size, is per-chunk decoder state
// (Huffman tables, outlier values). Measured here: nyx 1.29, hacc 1.30,
// hurr 1.04, cesm 3.41, stream 0.30; code arrays that came from make and
// a stream door that reconstructed into fresh slices measured 1.78, 2.13,
// 1.54, 4.89 and 1.80.
func TestDecompressAllocs(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	cases := []struct {
		name  string
		pl    *Pipeline
		data  []float32
		dims  grid.Dims
		relEB float64
		bound float64 // bytes allocated per field byte
	}{
		{"nyx", NewDefault(), sdrbench.GenNYX(grid.D3(64, 64, 64), 7), grid.D3(64, 64, 64), 1e-4, 1.35},
		{"hacc", NewDefault(), sdrbench.GenHACC(1<<18, 7), grid.D1(1 << 18), 1e-4, 1.45},
		{"hurr", NewSpeed(), sdrbench.GenHURR(grid.D3(64, 64, 64), 7), grid.D3(64, 64, 64), 1e-2, 1.1},
		{"cesm", NewQuality(), sdrbench.GenCESM(grid.D2(512, 512), 7), grid.D2(512, 512), 1e-4, 3.5},
	}
	for _, c := range cases {
		field := float64(4 * len(c.data))
		opts := Opts{ChunkElems: len(c.data) / 8, Workers: 1}
		blob, _, err := c.pl.CompressChunkedReport(p, c.data, c.dims, preprocess.RelBound(c.relEB), opts)
		if err != nil {
			t.Fatal(err)
		}
		_, b := device.MeasureAllocs(func() {
			if _, _, _, err := DecompressReportWithOpts(p, blob, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s Decompress: %.3f × field", c.name, float64(b)/field)
		if float64(b) > c.bound*field {
			t.Errorf("%s Decompress allocates %d bytes, %.3f × the field; want ≤ %.2f ×", c.name, b, float64(b)/field, c.bound)
		}
		if c.name != "nyx" {
			continue
		}
		stream := streamFromChunked(t, blob)
		_, b = device.MeasureAllocs(func() {
			if _, err := DecompressStreamCtx(context.Background(), p, bytes.NewReader(stream), io.Discard, Opts{Workers: 1, Window: 1}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s DecompressStreamCtx: %.3f × field", c.name, float64(b)/field)
		if float64(b) > 0.35*field {
			t.Errorf("%s DecompressStreamCtx allocates %d bytes, %.3f × the field; want ≤ 0.35 ×", c.name, b, float64(b)/field)
		}
	}
}
