package fzg

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"

	"fzmod/internal/device"
	"fzmod/internal/kernels/dispatch"
)

var tp = device.NewTestPlatform()

func roundtrip(t *testing.T, codes []uint16) []byte {
	t.Helper()
	return roundtripC(t, codes, 0)
}

func roundtripC(t *testing.T, codes []uint16, center int) []byte {
	t.Helper()
	blob := Encode(tp, device.Accel, codes, center)
	got, err := Decode(tp, device.Accel, blob)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got) != len(codes) {
		t.Fatalf("len = %d, want %d", len(got), len(codes))
	}
	for i := range codes {
		if got[i] != codes[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, got[i], codes[i])
		}
	}
	return blob
}

func TestRoundtripSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 1023, 1024, 1025, 4096, 100_000} {
		codes := make([]uint16, n)
		for i := range codes {
			codes[i] = uint16(rng.Intn(1024))
		}
		roundtrip(t, codes)
	}
}

func TestCompressesNearZeroResiduals(t *testing.T) {
	// Predictor-like output: values clustered tightly around 512.
	rng := rand.New(rand.NewSource(2))
	codes := make([]uint16, 200_000)
	for i := range codes {
		codes[i] = uint16(512 + rng.Intn(3) - 1)
	}
	blob := roundtripC(t, codes, 512)
	ratio := float64(2*len(codes)) / float64(len(blob))
	if ratio < 3 {
		t.Errorf("ratio on near-constant codes = %.2f, want ≥ 3", ratio)
	}
	// Without recentering the same codes barely compress — the recenter
	// step is load-bearing, as in the fused FZ-GPU kernel.
	raw := roundtripC(t, codes, 0)
	if len(raw) < 2*len(blob) {
		t.Errorf("recentering should shrink stream ≥ 2x: %d vs %d", len(raw), len(blob))
	}
}

func TestAllZeros(t *testing.T) {
	codes := make([]uint16, 50_000)
	blob := roundtrip(t, codes)
	// Only header + bitmaps remain.
	if len(blob) > 12+8*((len(codes)+1023)/1024) {
		t.Errorf("all-zero stream %d bytes, want bitmaps only", len(blob))
	}
}

func TestIncompressibleDataDoesNotExplode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	codes := make([]uint16, 100_000)
	for i := range codes {
		codes[i] = uint16(rng.Uint32())
	}
	blob := roundtrip(t, codes)
	nTiles := (len(codes) + 1023) / 1024
	// Worst case: every padded tile fully materialized plus bitmaps.
	if len(blob) > nTiles*2048+8*nTiles+16 {
		t.Errorf("random data expanded beyond tile+bitmap overhead: %d bytes", len(blob))
	}
}

// predictorLike fills codes the way a good predictor does: mostly the
// center, a band of near misses and a few far ones.
func predictorLike(rng *rand.Rand, codes []uint16) {
	for i := range codes {
		switch r := rng.Float64(); {
		case r < 0.8:
			codes[i] = 512
		case r < 0.97:
			codes[i] = uint16(512 + rng.Intn(9) - 4)
		default:
			codes[i] = uint16(rng.Intn(1024))
		}
	}
}

func TestCompressedSizeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Whole tiles, partial last tiles, a lone partial tile and nothing.
	for _, n := range []int{30_000, 30_720, 1025, 1023, 7, 0} {
		codes := make([]uint16, n)
		predictorLike(rng, codes)
		for _, center := range []int{512, 0} {
			blob := Encode(tp, device.Accel, codes, center)
			est := CompressedSize(codes, center)
			// Estimate uses the varint upper bound (12); actual header is smaller.
			if diff := est - len(blob); diff < 0 || diff > 12 {
				t.Errorf("n=%d center=%d: CompressedSize = %d, actual %d", n, center, est, len(blob))
			}
		}
	}
}

// TestEncodeBytesPinned holds Encode to the bytes of the bit-at-a-time,
// staged encoder it replaced (CRCs taken at the last commit that had it),
// under every kernel tier and across worker counts.
func TestEncodeBytesPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	codes := make([]uint16, 70_001)
	for i := range codes {
		switch {
		case i/3000%3 == 0:
			codes[i] = 512
		case rng.Intn(10) < 8:
			codes[i] = uint16(512 + rng.Intn(9) - 4)
		default:
			codes[i] = uint16(rng.Intn(1024))
		}
	}
	defer func() { _ = dispatch.Use("auto") }()
	for _, tier := range dispatch.Tiers() {
		if err := dispatch.Use(tier); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			p := tp.WithWorkers(workers)
			for _, pin := range []struct {
				center, size int
				crc          uint32
			}{{0, 63468, 0xd0022381}, {512, 60653, 0x7483c98e}, {32768, 138094, 0xf2cfa284}} {
				blob := Encode(p, device.Accel, codes, pin.center)
				if got := crc32.ChecksumIEEE(blob); len(blob) != pin.size || got != pin.crc {
					t.Errorf("%s w%d center %d: %d bytes, CRC %#08x; pinned %d bytes, CRC %#08x",
						tier, workers, pin.center, len(blob), got, pin.size, pin.crc)
				}
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	codes := make([]uint16, 5000)
	for i := range codes {
		codes[i] = uint16(i)
	}
	blob := Encode(tp, device.Accel, codes, 0)
	hostile := func(n, center uint64, rest int) []byte {
		b := binary.AppendUvarint(binary.AppendUvarint(nil, n), center)
		return append(b, make([]byte, rest)...)
	}
	for name, bad := range map[string][]byte{
		"empty blob":             nil,
		"truncated bitmap table": blob[:12],
		"truncated payload":      blob[:len(blob)-5],
		// int(n) is negative: once reached make([]uint64, nTiles).
		"code count beyond int":   hostile(1<<63+5, 0, 0),
		"code count beyond table": hostile(1<<40, 512, 64),
		"center beyond 16 bits":   hostile(8, 0x10000, 8),
	} {
		got, err := Decode(tp, device.Accel, bad)
		if err == nil {
			t.Errorf("%s: decoded %d codes, want an error", name, len(got))
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v does not wrap ErrCorrupt", name, err)
		}
	}
}

// checkDecodeInto decodes blob into a dst of length l (if l ≥ 0) that
// holds sentinels and sits in front of a sentinel guard. It must give
// Decode's codes when Decode succeeds with l codes, and otherwise an error
// wrapping ErrCorrupt with dst untouched; the guard is never written.
func checkDecodeInto(t *testing.T, blob []byte, l int) {
	t.Helper()
	if l < 0 {
		return
	}
	want, werr := Decode(tp, device.Accel, blob)
	buf := make([]uint16, l+tileValues)
	for i := range buf {
		buf[i] = 0xFFFF
	}
	got, err := DecodeInto(tp, device.Accel, blob, buf[:l:l])
	switch {
	case werr == nil && len(want) == l:
		if err != nil {
			t.Fatalf("%d codes into a dst of %d: %v", len(want), l, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("code %d is %d, Decode gives %d", i, got[i], want[i])
			}
		}
	case err == nil:
		t.Fatalf("dst of %d accepted a stream Decode gives %d codes, %v", l, len(want), werr)
	case !errors.Is(err, ErrCorrupt):
		t.Fatalf("DecodeInto error %v does not wrap ErrCorrupt", err)
	}
	from := l
	if err != nil {
		from = 0
	}
	for i := from; i < len(buf); i++ {
		if buf[i] != 0xFFFF {
			t.Fatalf("dst of %d: slot %d written (%d) by a refused or finished decode", l, i, buf[i])
		}
	}
}

// TestDecodeIntoCount: a destination one code shorter or longer than the
// stream holds is refused before anything is written; the exact length
// decodes in place.
func TestDecodeIntoCount(t *testing.T) {
	for _, n := range []int{1, tileValues - 1, tileValues, 3*tileValues + 17} {
		codes := make([]uint16, n)
		predictorLike(rand.New(rand.NewSource(int64(n))), codes)
		blob := Encode(tp, device.Accel, codes, 512)
		for _, l := range []int{n - 1, n, n + 1} {
			checkDecodeInto(t, blob, l)
		}
	}
}

// TestSteadyStateAllocs pins the allocations of a warm Encode and Decode to
// a constant that does not grow with the tile count: the returned slice, the
// launch closure and what a fan-out over the place's workers costs.
func TestSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var perSize [2][2]uint64
	for i, tiles := range []int{2 * spanTiles, 32 * spanTiles} {
		codes := make([]uint16, tiles*tileValues-3)
		predictorLike(rng, codes)
		blob := Encode(tp, device.Accel, codes, 512)
		perSize[i][0], _ = device.MeasureAllocs(func() { Encode(tp, device.Accel, codes, 512) })
		perSize[i][1], _ = device.MeasureAllocs(func() {
			if _, err := Decode(tp, device.Accel, blob); err != nil {
				t.Fatal(err)
			}
		})
	}
	for j, op := range []string{"Encode", "Decode"} {
		small, large := perSize[0][j], perSize[1][j]
		if large > small || large > 8 {
			t.Errorf("%s: %d allocs at %d tiles, %d at %d; want a constant of at most 8",
				op, small, 2*spanTiles, large, 32*spanTiles)
		}
	}
}

func TestPropertyRoundtrip(t *testing.T) {
	for _, center := range []int{0, 512} {
		center := center
		f := func(codes []uint16) bool {
			blob := Encode(tp, device.Accel, codes, center)
			got, err := Decode(tp, device.Accel, blob)
			if err != nil || len(got) != len(codes) {
				return false
			}
			for i := range codes {
				if got[i] != codes[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("center %d: %v", center, err)
		}
	}
}

// FuzzFZGDecode feeds arbitrary bytes to Decode, which must return codes or
// an error wrapping ErrCorrupt and never panic, and round-trips the same
// bytes read as a code slice under the three centers the format
// distinguishes: raw, a preset radius and the top of the alphabet.
func FuzzFZGDecode(f *testing.F) {
	// The hostile headers and damaged streams are checked in under testdata.
	f.Add([]byte{}, uint8(0))
	codes := make([]uint16, 3*tileValues+17)
	predictorLike(rand.New(rand.NewSource(6)), codes)
	f.Add(Encode(tp, device.Accel, codes, 512), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, pick uint8) {
		if got, err := Decode(tp, device.Accel, raw); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error %v does not wrap ErrCorrupt", err)
			}
		} else if len(got) > 128*len(raw) {
			t.Fatalf("%d bytes decoded to %d codes", len(raw), len(got))
		}
		// The destination entry point, with a length next to the header's
		// count drawn from pick.
		n, _ := binary.Uvarint(raw)
		checkDecodeInto(t, raw, int(min(n, 128*uint64(len(raw))))+int(pick/3%3)-1)
		codes := make([]uint16, len(raw)/2)
		for i := range codes {
			codes[i] = binary.LittleEndian.Uint16(raw[2*i:])
		}
		center := []int{0, 512, 32768}[int(pick)%3]
		got, err := Decode(tp, device.Accel, Encode(tp, device.Accel, codes, center))
		if err != nil || len(got) != len(codes) {
			t.Fatalf("center %d: round trip of %d codes gave %d, %v", center, len(codes), len(got), err)
		}
		for i := range codes {
			if got[i] != codes[i] {
				t.Fatalf("center %d: code %d is %d, want %d", center, i, got[i], codes[i])
			}
		}
	})
}

// The pair runs on one HURR-sized chunk's worth of predictor-like codes
// (200 tiles), once per kernel tier.

func benchTiers(b *testing.B, f func(b *testing.B)) {
	defer func() { _ = dispatch.Use("auto") }()
	for _, tier := range dispatch.Tiers() {
		if err := dispatch.Use(tier); err != nil {
			b.Fatal(err)
		}
		b.Run(tier, f)
	}
}

func BenchmarkFZGEncode(b *testing.B) {
	codes := make([]uint16, 200*tileValues)
	predictorLike(rand.New(rand.NewSource(7)), codes)
	p := tp.WithWorkers(1)
	benchTiers(b, func(b *testing.B) {
		b.SetBytes(int64(2 * len(codes)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Encode(p, device.Accel, codes, 512)
		}
	})
}

func BenchmarkFZGDecode(b *testing.B) {
	codes := make([]uint16, 200*tileValues)
	predictorLike(rand.New(rand.NewSource(7)), codes)
	p := tp.WithWorkers(1)
	blob := Encode(p, device.Accel, codes, 512)
	benchTiers(b, func(b *testing.B) {
		b.SetBytes(int64(2 * len(codes)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(p, device.Accel, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
