package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fzmod/internal/device"
	"fzmod/internal/kernels/dispatch"
)

// shuffle16 and shuffle32 round-trip vals through the dispatched bitshuffle
// kernels, returning the planes and the restored values.
func shuffle16(vals []uint16) ([]byte, []uint16) {
	sh := make([]byte, 16*((len(vals)+7)/8))
	dispatch.Bitshuffle16(sh, vals, 0)
	got := make([]uint16, len(vals))
	dispatch.Unbitshuffle16(got, sh, 0)
	return sh, got
}

func shuffle32(vals []uint32) ([]byte, []uint32) {
	sh := make([]byte, 32*((len(vals)+7)/8))
	dispatch.Bitshuffle32(sh, vals)
	got := make([]uint32, len(vals))
	dispatch.Unbitshuffle32(got, sh)
	return sh, got
}

var tp = device.NewTestPlatform()

func TestMinMaxF32(t *testing.T) {
	data := []float32{3, -7.5, 0, 12.25, 12.24, -7.4}
	mn, mx := MinMaxF32(tp, device.Accel, data)
	if mn != -7.5 || mx != 12.25 {
		t.Errorf("MinMax = (%v, %v), want (-7.5, 12.25)", mn, mx)
	}
}

func TestMinMaxF32Empty(t *testing.T) {
	mn, mx := MinMaxF32(tp, device.Accel, nil)
	if mn != 0 || mx != 0 {
		t.Errorf("MinMax(nil) = (%v, %v), want (0, 0)", mn, mx)
	}
}

func TestMinMaxF32Large(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, 100_000)
	wantMn, wantMx := float32(math.Inf(1)), float32(math.Inf(-1))
	for i := range data {
		data[i] = float32(rng.NormFloat64())
		if data[i] < wantMn {
			wantMn = data[i]
		}
		if data[i] > wantMx {
			wantMx = data[i]
		}
	}
	mn, mx := MinMaxF32(tp, device.Accel, data)
	if mn != wantMn || mx != wantMx {
		t.Errorf("MinMax = (%v, %v), want (%v, %v)", mn, mx, wantMn, wantMx)
	}
}

func TestSumF64(t *testing.T) {
	data := make([]float64, 10_000)
	for i := range data {
		data[i] = 1.0 / 16
	}
	got := SumF64(tp, device.Accel, data)
	if math.Abs(got-625) > 1e-9 {
		t.Errorf("SumF64 = %v, want 625", got)
	}
}

func TestExclusiveScanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 5, 4095, 4096, 4097, 20_000} {
		src := make([]uint32, n)
		for i := range src {
			src[i] = uint32(rng.Intn(10))
		}
		got, total := ExclusiveScan(tp, device.Accel, src)
		var acc uint32
		for i := 0; i < n; i++ {
			if got[i] != acc {
				t.Fatalf("n=%d: scan[%d] = %d, want %d", n, i, got[i], acc)
			}
			acc += src[i]
		}
		if total != acc {
			t.Fatalf("n=%d: total = %d, want %d", n, total, acc)
		}
	}
}

func TestPackUnpackBitsRoundtrip(t *testing.T) {
	for width := 0; width <= 32; width++ {
		rng := rand.New(rand.NewSource(int64(width)))
		vals := make([]uint32, 257)
		for i := range vals {
			vals[i] = rng.Uint32() & widthMask(width)
		}
		packed := PackBits(nil, vals, width)
		got, end := UnpackBits(packed, 0, len(vals), width)
		if width > 0 && end != len(vals)*width {
			t.Fatalf("width %d: end bit = %d, want %d", width, end, len(vals)*width)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("width %d: vals[%d] = %d, want %d", width, i, got[i], vals[i])
			}
		}
	}
}

func TestPackBitsAppendsToExisting(t *testing.T) {
	dst := []byte{0xAA}
	dst = PackBits(dst, []uint32{0b101, 0b011}, 3)
	if dst[0] != 0xAA {
		t.Error("PackBits must not clobber existing prefix")
	}
	got, _ := UnpackBits(dst, 8, 2, 3)
	if got[0] != 0b101 || got[1] != 0b011 {
		t.Errorf("unpacked %v", got)
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[uint32]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, math.MaxUint32: 32}
	for v, want := range cases {
		if got := BitsFor(v); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestZigZagRoundtrip(t *testing.T) {
	f := func(v int32) bool { return UnZigZag(ZigZag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Small magnitudes map to small codes.
	if ZigZag(0) != 0 || ZigZag(-1) != 1 || ZigZag(1) != 2 || ZigZag(-2) != 3 {
		t.Error("ZigZag ordering violated")
	}
}

func TestBitshuffleRoundtrip(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 255, 256, 1024, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		vals := make([]uint16, n)
		for i := range vals {
			vals[i] = uint16(rng.Uint32())
		}
		_, got := shuffle16(vals)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("n=%d: roundtrip mismatch at %d", n, i)
			}
		}
	}
}

func TestBitshuffleConcentratesZeros(t *testing.T) {
	// Small values → high bit-planes are all zero bytes; that property is
	// what the FZ-GPU dictionary stage exploits.
	vals := make([]uint16, 1024)
	for i := range vals {
		vals[i] = uint16(i % 4) // only 2 bit-planes populated
	}
	sh, _ := shuffle16(vals)
	zeroBytes := 0
	for _, b := range sh {
		if b == 0 {
			zeroBytes++
		}
	}
	if zeroBytes < len(sh)*13/16 {
		t.Errorf("expected ≥13/16 zero bytes after shuffle of 2-bit values, got %d/%d", zeroBytes, len(sh))
	}
}

func TestBitshuffleProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		_, got := shuffle16(vals)
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScanProperty(t *testing.T) {
	f := func(src []uint32) bool {
		// Bound values to avoid overflow ambiguity in the check.
		for i := range src {
			src[i] %= 1000
		}
		got, total := ExclusiveScan(tp, device.Accel, src)
		var acc uint32
		for i := range src {
			if got[i] != acc {
				return false
			}
			acc += src[i]
		}
		return total == acc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZigZag16Bijection(t *testing.T) {
	seen := make(map[uint16]bool, 1<<16)
	for v := 0; v < 1<<16; v++ {
		u := ZigZag16(int16(v))
		if seen[u] {
			t.Fatalf("ZigZag16 not injective at %d", v)
		}
		seen[u] = true
		if UnZigZag16(u) != int16(v) {
			t.Fatalf("UnZigZag16(ZigZag16(%d)) = %d", int16(v), UnZigZag16(u))
		}
	}
}

func TestBitshuffle32Roundtrip(t *testing.T) {
	for _, n := range []int{1, 8, 9, 4096, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = rng.Uint32()
		}
		_, got := shuffle32(vals)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("n=%d mismatch at %d", n, i)
			}
		}
	}
}

func TestBitshuffle32Property(t *testing.T) {
	f := func(vals []uint32) bool {
		_, got := shuffle32(vals)
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
