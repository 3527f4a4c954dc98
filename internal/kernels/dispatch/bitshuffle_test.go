package dispatch

import (
	"bytes"
	"math/rand"
	"testing"
)

// The bit-at-a-time loops the word-level kernels replaced, kept as the
// oracle: plane p, byte i/8, bit i%8 holds bit p of value i.

func bitshuffleBitwise[T uint16 | uint32](vals []T, planes int) []byte {
	stride := (len(vals) + 7) / 8
	out := make([]byte, planes*stride)
	for p := 0; p < planes; p++ {
		for i, v := range vals {
			if v>>uint(p)&1 != 0 {
				out[p*stride+i/8] |= 1 << uint(i%8)
			}
		}
	}
	return out
}

func unbitshuffleBitwise[T uint16 | uint32](src []byte, n, planes int) []T {
	stride := (n + 7) / 8
	out := make([]T, n)
	for p := 0; p < planes; p++ {
		for i := 0; i < n; i++ {
			if src[p*stride+i/8]>>uint(i%8)&1 != 0 {
				out[i] |= 1 << uint(p)
			}
		}
	}
	return out
}

// shuffleFill fills vals with one of the value shapes the kernels must get
// right: random, all-zero planes, all-ones planes, low planes only, and a
// single set bit.
func shuffleFill[T uint16 | uint32](rng *rand.Rand, vals []T, shape int) {
	for i := range vals {
		switch shape {
		case 0:
			vals[i] = T(rng.Uint32())
		case 1:
			vals[i] = 0
		case 2:
			vals[i] = ^T(0)
		case 3:
			vals[i] = T(rng.Intn(8))
		}
	}
	if shape == 4 && len(vals) > 0 {
		clear(vals)
		vals[rng.Intn(len(vals))] = T(1) << uint(rng.Intn(16))
	}
}

const shuffleShapes = 5

// checkShuffle16 runs the installed 16-bit kernels on vals against the
// bitwise oracle — fed the scalar recentring of vals when center is not 0 —
// into dirty and unaligned destination buffers.
func checkShuffle16(t *testing.T, vals []uint16, center uint16, off int) {
	t.Helper()
	n := len(vals)
	mapped := vals
	if center != 0 {
		mapped = make([]uint16, n)
		for i, v := range vals {
			d := int16(v - center)
			mapped[i] = uint16((d << 1) ^ (d >> 15))
		}
	}
	want := bitshuffleBitwise(mapped, 16)
	got := bytes.Repeat([]byte{0xA5}, len(want)+off+3)[off:]
	Bitshuffle16(got, vals, center)
	if !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("Bitshuffle16 n=%d center=%d off=%d differs from the bitwise reference", n, center, off)
	}
	if !bytes.Equal(got[len(want):], []byte{0xA5, 0xA5, 0xA5}) {
		t.Fatalf("Bitshuffle16 n=%d wrote past 16 planes", n)
	}
	// Pad bits of a hostile stream must not leak into values.
	for p := 0; n%8 != 0 && p < 16; p++ {
		got[p*((n+7)/8)+n/8] |= 0xFF << uint(n%8)
	}
	back := offsetU16(n+1, off)
	back[n] = 0xBEEF
	for i := range back[:n] {
		back[i] = 0x5A5A
	}
	Unbitshuffle16(back[:n], got, center)
	ref := unbitshuffleBitwise[uint16](want, n, 16)
	for i := range vals {
		if back[i] != vals[i] || ref[i] != mapped[i] {
			t.Fatalf("Unbitshuffle16 n=%d center=%d off=%d [%d] = %#x (reference %#x), want %#x", n, center, off, i, back[i], ref[i], vals[i])
		}
	}
	if back[n] != 0xBEEF {
		t.Fatalf("Unbitshuffle16 n=%d wrote past dst", n)
	}
}

func checkShuffle32(t *testing.T, vals []uint32, off int) {
	t.Helper()
	n := len(vals)
	want := bitshuffleBitwise(vals, 32)
	got := bytes.Repeat([]byte{0xA5}, len(want)+off+3)[off:]
	Bitshuffle32(got, vals)
	if !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("Bitshuffle32 n=%d off=%d differs from the bitwise reference", n, off)
	}
	if !bytes.Equal(got[len(want):], []byte{0xA5, 0xA5, 0xA5}) {
		t.Fatalf("Bitshuffle32 n=%d wrote past 32 planes", n)
	}
	for p := 0; n%8 != 0 && p < 32; p++ {
		got[p*((n+7)/8)+n/8] |= 0xFF << uint(n%8)
	}
	back := offsetU32(n+1, off)
	back[n] = 0xDEADBEEF
	for i := range back[:n] {
		back[i] = 0x5A5A5A5A
	}
	Unbitshuffle32(back[:n], got)
	ref := unbitshuffleBitwise[uint32](want, n, 32)
	for i := range vals {
		if back[i] != vals[i] || ref[i] != vals[i] {
			t.Fatalf("Unbitshuffle32 n=%d off=%d [%d] = %#x (reference %#x), want %#x", n, off, i, back[i], ref[i], vals[i])
		}
	}
	if back[n] != 0xDEADBEEF {
		t.Fatalf("Unbitshuffle32 n=%d wrote past dst", n)
	}
}

func TestBitshuffleMatchesBitwiseReference(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		lengths := []int{1023, 1024, 1025, 4096, 4100}
		for n := 0; n <= 200; n++ {
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			for shape := 0; shape < shuffleShapes; shape++ {
				off := rng.Intn(4)
				v16 := offsetU16(n, off)
				shuffleFill(rng, v16, shape)
				checkShuffle16(t, v16, []uint16{0, 512, 32768, 0xFFFF}[rng.Intn(4)], off)
				v32 := offsetU32(n, off)
				shuffleFill(rng, v32, shape)
				checkShuffle32(t, v32, off)
			}
		}
	})
}

func benchShuffle(b *testing.B, n, width int, f func()) {
	benchTiers(b, func(b *testing.B) {
		b.SetBytes(int64(n * width))
		for i := 0; i < b.N; i++ {
			f()
		}
	})
}

// The 16-bit pair runs at the fzg tile size, the 32-bit pair at PFPL's chunk.

func BenchmarkBitshuffle16(b *testing.B) {
	vals := make([]uint16, 1024)
	shuffleFill(rand.New(rand.NewSource(13)), vals, 0)
	dst := make([]byte, 2*len(vals))
	benchShuffle(b, len(vals), 2, func() { Bitshuffle16(dst, vals, 512) })
}

func BenchmarkUnbitshuffle16(b *testing.B) {
	src := make([]byte, 2048)
	rand.New(rand.NewSource(14)).Read(src)
	dst := make([]uint16, 1024)
	benchShuffle(b, len(dst), 2, func() { Unbitshuffle16(dst, src, 512) })
}

func BenchmarkBitshuffle32(b *testing.B) {
	vals := make([]uint32, 4096)
	shuffleFill(rand.New(rand.NewSource(15)), vals, 0)
	dst := make([]byte, 4*len(vals))
	benchShuffle(b, len(vals), 4, func() { Bitshuffle32(dst, vals) })
}

func BenchmarkUnbitshuffle32(b *testing.B) {
	src := make([]byte, 4*4096)
	rand.New(rand.NewSource(16)).Read(src)
	dst := make([]uint32, 4096)
	benchShuffle(b, len(dst), 4, func() { Unbitshuffle32(dst, src) })
}
