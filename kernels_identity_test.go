package fzmod_test

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"fzmod"
	"fzmod/internal/kernels/dispatch"
	"fzmod/internal/sdrbench"
)

// TestKernelTierContainerIdentity compresses the same fields under the
// pure-Go kernels and under the auto-detected SIMD tier and requires the
// container bytes to match exactly — the dispatch layer's whole contract
// is that the tiers are bit-identical, not merely error-bounded. It then
// decompresses every container under both tiers and requires the same
// float bits. The odd-width field runs every row kernel's scalar tail. On
// hosts without a vector tier the two runs collapse to the same path and
// the test degenerates to a determinism check.
func TestKernelTierContainerIdentity(t *testing.T) {
	if err := dispatch.Use("purego"); err != nil {
		t.Fatal(err)
	}
	restored := false
	restore := func() {
		if !restored {
			restored = true
			if err := dispatch.Use("auto"); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer restore()

	p := fzmod.NewPlatform()
	type field struct {
		dims fzmod.Dims
		data []float32
	}
	dims, odd := fzmod.Dims3(48, 40, 20), fzmod.Dims3(45, 37, 11)
	fields := map[string]field{
		"hurr":     {dims, sdrbench.GenHURR(dims, 11)},
		"nyx":      {dims, sdrbench.GenNYX(dims, 12)},
		"hurr-odd": {odd, sdrbench.GenHURR(odd, 13)},
	}
	type key struct{ pipeline, field string }
	ref := map[key][]byte{}
	refField := map[key][]float32{}
	for _, pl := range fzmod.Presets() {
		for name, f := range fields {
			k := key{pl.Name(), name}
			blob, err := pl.Compress(p, f.data, f.dims, fzmod.Rel(1e-3))
			if err != nil {
				t.Fatalf("purego %s/%s: %v", pl.Name(), name, err)
			}
			ref[k] = blob
			if refField[k], _, _, err = fzmod.Decompress(context.Background(), p, blob, fzmod.Opts{}); err != nil {
				t.Fatalf("purego decompress %s/%s: %v", pl.Name(), name, err)
			}
		}
	}

	restore()
	t.Logf("comparing purego against tier %q", dispatch.Active())
	for _, pl := range fzmod.Presets() {
		for name, f := range fields {
			k := key{pl.Name(), name}
			blob, err := pl.Compress(p, f.data, f.dims, fzmod.Rel(1e-3))
			if err != nil {
				t.Fatalf("%s %s/%s: %v", dispatch.Active(), pl.Name(), name, err)
			}
			want := ref[k]
			if !bytes.Equal(blob, want) {
				t.Errorf("%s/%s: container bytes differ between purego (%d bytes) and %s (%d bytes)",
					pl.Name(), name, len(want), dispatch.Active(), len(blob))
			}
			got, _, _, err := fzmod.Decompress(context.Background(), p, want, fzmod.Opts{})
			if err != nil {
				t.Fatalf("%s decompress %s/%s: %v", dispatch.Active(), pl.Name(), name, err)
			}
			for i, v := range refField[k] {
				if math.Float32bits(got[i]) != math.Float32bits(v) {
					t.Errorf("%s/%s: decoded value %d is %v under %s, %v under purego",
						pl.Name(), name, i, got[i], dispatch.Active(), v)
					break
				}
			}
		}
	}
}

// TestKernelTierIdentityNYXLarge is the paper-scale check: the 256³ NYX
// field (64 MiB) compressed single-core under the pure-Go kernels and
// under the auto-detected tier must produce identical container bytes, and
// on AVX2 hardware the vector tier must be meaningfully faster (the
// conservative 1.3× floor here tolerates loaded CI runners; the benchmark
// gates track the real ≥2× margin). Skipped in -short mode.
func TestKernelTierIdentityNYXLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("64 MiB field in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	p := fzmod.NewPlatform()
	dims := fzmod.Dims3(256, 256, 256)
	data := sdrbench.GenNYX(dims, 77)
	pl := fzmod.Default()

	// compress returns the container bytes and the best-of-two wall time
	// under the currently installed kernel tier.
	compress := func() ([]byte, float64) {
		var blob []byte
		var best float64
		for pass := 0; pass < 2; pass++ {
			t0 := time.Now()
			b, err := pl.Compress(p, data, dims, fzmod.Rel(1e-4))
			sec := time.Since(t0).Seconds()
			if err != nil {
				t.Fatalf("%s: %v", dispatch.Active(), err)
			}
			blob = b
			if pass == 0 || sec < best {
				best = sec
			}
		}
		return blob, best
	}

	if err := dispatch.Use("purego"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dispatch.Use("auto"); err != nil {
			t.Fatal(err)
		}
	}()
	ref, refSec := compress()

	if err := dispatch.Use("auto"); err != nil {
		t.Fatal(err)
	}
	blob, tierSec := compress()

	if !bytes.Equal(blob, ref) {
		t.Errorf("256³ NYX container bytes differ between purego (%d bytes) and %s (%d bytes)",
			len(ref), dispatch.Active(), len(blob))
	}
	gbs := func(sec float64) float64 { return float64(4*dims.N()) / sec / 1e9 }
	t.Logf("single-core 256³ NYX compress: purego %.3f GB/s, %s %.3f GB/s (%.2fx)",
		gbs(refSec), dispatch.Active(), gbs(tierSec), refSec/tierSec)
	if dispatch.Active() == dispatch.AVX2 && refSec/tierSec < 1.3 {
		t.Errorf("avx2 tier only %.2fx over purego on 256³ NYX, want well above 1.3x",
			refSec/tierSec)
	}
}
