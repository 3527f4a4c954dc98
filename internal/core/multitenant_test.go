package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/preprocess"
)

// TestMultiTenantSharedPlatform is the daemon's concurrency contract: many
// tenants mixing chunked compression, stream compression and cached region
// reads over one shared Platform (one BufPool, one SlabCache) must each
// observe exactly the bytes a serial run produces, and the pool must
// balance when they all finish. Run under -race, this is the test that
// guards internal/serve's sharing model.
func TestMultiTenantSharedPlatform(t *testing.T) {
	p := device.NewTestPlatform()
	data, dims := chunkField()
	eb := preprocess.RelBound(1e-3)
	pl := NewDefault()
	opts := ChunkOpts{ChunkElems: dims.PlaneElems() * 5, Workers: 2}

	// Serial references, computed before any concurrency starts.
	refChunk, _, err := pl.CompressChunkedReport(p, data, dims, eb, opts)
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := device.WriteF32(&raw, data, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	// Streaming needs an absolute bound (no whole-field range to resolve
	// a relative one against).
	absVal, _, err := preprocess.Resolve(p, device.Accel, data, eb)
	if err != nil {
		t.Fatal(err)
	}
	absEB := preprocess.AbsBound(absVal)
	var refStreamBuf bytes.Buffer
	if _, err := pl.CompressStreamCtx(context.Background(), p, bytes.NewReader(raw.Bytes()), dims, absEB,
		&refStreamBuf, StreamOpts{Window: dims.PlaneElems() * 4, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	refStream := refStreamBuf.Bytes()
	cache := NewSlabCache(1 << 22)
	sel := RegionSel{X0: 3, X1: dims.X - 2, Y0: 1, Y1: dims.Y, Z0: 5, Z1: dims.Z - 4}
	refRegion, _, err := readRegion(p, fzio.NewBytesFetcher(refChunk), sel, RegionOpts{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	const tenants = 9
	const iters = 3
	var wg sync.WaitGroup
	errs := make([]error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch (i + it) % 3 {
				case 0: // chunked compress
					blob, _, err := pl.CompressChunkedReport(p, data, dims, eb, opts)
					if err != nil {
						errs[i] = err
						return
					}
					if !bytes.Equal(blob, refChunk) {
						errs[i] = errors.New("chunked bytes differ from serial run")
						return
					}
				case 1: // stream compress
					var buf bytes.Buffer
					if _, err := pl.CompressStreamCtx(context.Background(), p, bytes.NewReader(raw.Bytes()), dims, absEB,
						&buf, StreamOpts{Window: dims.PlaneElems() * 4, Workers: 2}); err != nil {
						errs[i] = err
						return
					}
					if !bytes.Equal(buf.Bytes(), refStream) {
						errs[i] = errors.New("stream bytes differ from serial run")
						return
					}
				case 2: // region read through the shared cache
					got, _, err := readRegion(p, fzio.NewBytesFetcher(refChunk), sel,
						RegionOpts{Workers: 2, Cache: cache})
					if err != nil {
						errs[i] = err
						return
					}
					for j := range refRegion {
						if got[j] != refRegion[j] {
							errs[i] = errors.New("region read differs from serial run")
							return
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}
	if st := p.ScratchPool().Stats(); st.Gets != st.Puts {
		t.Fatalf("scratch pool unbalanced after multi-tenant run: gets=%d puts=%d", st.Gets, st.Puts)
	}
}

// waitBalanced polls the scratch pool until gets==puts (a canceled graph's
// already-running bodies return their slabs as they finish draining).
func waitBalanced(t *testing.T, p *device.Platform) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.ScratchPool().Stats()
		if st.Gets == st.Puts {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scratch pool unbalanced after cancellation: gets=%d puts=%d", st.Gets, st.Puts)
		}
		time.Sleep(time.Millisecond)
	}
}

// settledGoroutines waits, for up to 5 s, until the goroutine count is
// back at baseline — a worker that has signaled its graph done still
// takes a moment to return — and reports the last count it saw.
func settledGoroutines(baseline int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestCompressCtxCancellation is the daemon's abort contract: an expired
// or canceled context stops a compression task graph at its next dispatch
// boundary, the error surfaces as the context's own error, no goroutines
// linger, and every pooled slab the graph checked out goes back.
func TestCompressCtxCancellation(t *testing.T) {
	p := device.NewTestPlatform()
	data, dims := chunkField()
	eb := preprocess.RelBound(1e-3)
	pl := NewDefault()
	opts := ChunkOpts{ChunkElems: dims.PlaneElems() * 5, Workers: 2}

	// Warm every execution path once so the platform's persistent worker
	// pools exist before the goroutine baseline: the leak check below must
	// catch graphs that fail to drain, not lazily created pool workers.
	warmBlob, _, err := pl.CompressChunkedReport(p, data, dims, eb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := readRegion(p, fzio.NewBytesFetcher(warmBlob), FullRegion(dims), RegionOpts{}); err != nil {
		t.Fatal(err)
	}
	raw := device.F32Bytes(data)
	streamOpts := StreamOpts{ChunkElems: opts.ChunkElems, Workers: 2, Window: 2}
	var streamBlob bytes.Buffer
	if _, err := pl.CompressStreamCtx(context.Background(), p, bytes.NewReader(raw), dims, preprocess.AbsBound(1e-3), &streamBlob, streamOpts); err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressStreamCtx(context.Background(), p, bytes.NewReader(streamBlob.Bytes()), io.Discard, streamOpts); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecompressSalvageCtx(context.Background(), p, fzio.NewBytesFetcher(warmBlob), opts); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	t.Run("expired deadline", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		if _, _, err := pl.CompressChunkedReportCtx(ctx, p, data, dims, eb, opts); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		waitBalanced(t, p)
	})

	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := pl.CompressChunkedReportCtx(ctx, p, data, dims, eb, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if _, _, _, err := DecompressReportWithOptsCtx(ctx, p, nil, DecompressOpts{}); err == nil {
			t.Fatal("decompress of nil blob with canceled ctx should fail")
		}
		waitBalanced(t, p)
	})

	t.Run("region read canceled", func(t *testing.T) {
		blob, _, err := pl.CompressChunkedReport(p, data, dims, eb, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		r, err := OpenRegion(p, fzio.NewBytesFetcher(blob), RegionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.ReadReportCtx(ctx, FullRegion(dims)); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		waitBalanced(t, p)
	})

	t.Run("stream compress canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := pl.CompressStreamCtx(ctx, p, bytes.NewReader(raw), dims, preprocess.AbsBound(1e-3), io.Discard, streamOpts); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		waitBalanced(t, p)
	})

	t.Run("stream decompress canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := DecompressStreamCtx(ctx, p, bytes.NewReader(streamBlob.Bytes()), io.Discard, streamOpts); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		waitBalanced(t, p)
	})

	t.Run("salvage canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := DecompressSalvageCtx(ctx, p, fzio.NewBytesFetcher(warmBlob), opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		waitBalanced(t, p)
	})

	// No goroutine leak: canceled graphs must still drain their workers.
	if n := settledGoroutines(before + 2); n > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after cancellations", before, n)
	}
}
