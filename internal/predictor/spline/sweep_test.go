package spline

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/sdrbench"
)

// cesmChunk is one chunk of the cesm-quality benchmark field: 1800×150 of
// the CESM generator at seed 42, with the relative bound 1e-4 resolved
// against the chunk's own value range.
func cesmChunk() ([]float32, grid.Dims, float64) {
	dims := grid.D2(1800, 150)
	data := sdrbench.GenCESM(dims, 42)
	lo, hi := slices.Min(data), slices.Max(data)
	return data, dims, 1e-4 * float64(hi-lo)
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func checkSame[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// escapes lists the positions of the escape codes (0) in index order.
func escapes(codes []uint16) []uint32 {
	var idx []uint32
	for i, c := range codes {
		if c == 0 {
			idx = append(idx, uint32(i))
		}
	}
	return idx
}

// matchReference encodes with the row sweeps and the per-point reference
// engine and requires identical streams, then decodes the stream with both
// and requires bit-identical fields.
func matchReference(t *testing.T, data []float32, dims grid.Dims, eb float64, cfg Config) {
	t.Helper()
	want, werr := refEncode(tp, device.Accel, data, dims, eb, cfg)
	got, err := Encode(tp, device.Accel, data, dims, eb, cfg)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("Encode error %v, reference %v", err, werr)
	}
	if werr != nil {
		return
	}
	checkSame(t, "Codes", got.Codes, want.Codes)
	checkSame(t, "escapes", escapes(got.Codes), want.OutIdx)
	checkSame(t, "Choices", got.Choices, want.Choices)
	checkSame(t, "Orders", got.Orders, want.Orders)
	if !sameBits(got.Anchors, want.Anchors) || !sameBits(got.OutVal, want.OutVal) {
		t.Fatal("anchor or outlier values differ from the reference")
	}
	if got.Radius != want.Radius || got.MaxLevel != want.MaxLevel {
		t.Fatalf("radius/maxLevel %d/%d, reference %d/%d", got.Radius, got.MaxLevel, want.Radius, want.MaxLevel)
	}
	dec, err := Decode(tp, device.Accel, got, dims, eb)
	ref, rerr := refDecode(tp, device.Accel, want, dims, eb)
	if err != nil || rerr != nil {
		t.Fatalf("Decode error %v, reference %v", err, rerr)
	}
	if !sameBits(dec, ref) {
		t.Fatal("decoded field differs from the reference")
	}
}

func TestSweepMatchesReference(t *testing.T) {
	shapes := []grid.Dims{
		grid.D1(3001), grid.D1(1), grid.D1(2), grid.D1(7),
		grid.D2(101, 93), grid.D2(5, 3), grid.D2(2, 17), grid.D2(64, 64),
		grid.D3(31, 19, 7), grid.D3(5, 3, 2), grid.D3(17, 33, 9), grid.D3(1, 9, 13),
	}
	modes := []InterpMode{Cubic, Linear, Auto}
	for si, dims := range shapes {
		data := smoothField(dims, int64(40+si))
		for ml := 1; ml <= 6; ml++ {
			for mi, mode := range modes {
				for _, tune := range []bool{false, true} {
					// Rotate through a loose bound, a moderate one and one
					// tight enough that most points escape.
					eb := []float64{1e-2, 1e-4, 1e-9}[(ml+mi)%3]
					matchReference(t, data, dims, eb, Config{MaxLevel: ml, Mode: mode, TuneOrder: tune})
				}
			}
		}
	}
}

func TestSweepMatchesReferenceRough(t *testing.T) {
	// White noise at a tight bound: most points escape, and the escapes
	// feed later predictions.
	rng := rand.New(rand.NewSource(11))
	for _, dims := range []grid.Dims{grid.D1(3001), grid.D2(101, 93), grid.D3(31, 19, 7)} {
		data := make([]float32, dims.N())
		for i := range data {
			data[i] = float32(rng.NormFloat64() * 100)
		}
		for _, mode := range []InterpMode{Cubic, Linear, Auto} {
			matchReference(t, data, dims, 1e-3, Config{Mode: mode, TuneOrder: true})
		}
	}
}

func TestSweepMatchesReferenceNonFinite(t *testing.T) {
	dims := grid.D3(33, 17, 9)
	data := smoothField(dims, 50)
	for i, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		data[(i*997+13)%len(data)] = v
		data[(i*1999+256)%len(data)] = v // on the anchor lattice at level 4
	}
	for _, mode := range []InterpMode{Cubic, Linear, Auto} {
		for _, tune := range []bool{false, true} {
			matchReference(t, data, dims, 1e-3, Config{Mode: mode, TuneOrder: tune})
		}
	}
}

func TestSweepMatchesReferenceCESM(t *testing.T) {
	data, dims, eb := cesmChunk()
	for _, mode := range []InterpMode{Cubic, Auto} {
		matchReference(t, data, dims, eb, Config{Mode: mode, TuneOrder: true})
	}
}

func TestSweepMatchesReferenceErrors(t *testing.T) {
	data := smoothField(grid.D1(8), 1)
	matchReference(t, data, grid.D1(9), 1e-3, Config{})
	matchReference(t, data, grid.D1(8), -1e-3, Config{})
	matchReference(t, data, grid.D1(8), 0, Config{})

	q, err := Encode(tp, device.Accel, smoothField(grid.D2(20, 20), 2), grid.D2(20, 20), 1e-3, Config{TuneOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(q *Quantized){
		"codes":   func(q *Quantized) { q.Codes = q.Codes[1:] },
		"radius":  func(q *Quantized) { q.Radius = 0 },
		"level":   func(q *Quantized) { q.MaxLevel = -1 },
		"choices": func(q *Quantized) { q.Choices = q.Choices[:2] },
		"orders":  func(q *Quantized) { q.Orders = q.Orders[:1] },
		"order":   func(q *Quantized) { q.Orders = []byte{0, 7, 0, 0} },
		"anchors": func(q *Quantized) { q.Anchors = q.Anchors[1:] },
	} {
		bad := *q
		mutate(&bad)
		_, err := Decode(tp, device.Accel, &bad, grid.D2(20, 20), 1e-3)
		_, rerr := refDecode(tp, device.Accel, &bad, grid.D2(20, 20), 1e-3)
		if err == nil || rerr == nil || err.Error() != rerr.Error() {
			t.Errorf("%s: Decode error %v, reference %v", name, err, rerr)
		}
	}
}

func TestDecodeEscapeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := grid.D2(40, 30)
	data := make([]float32, dims.N())
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	q, err := Encode(tp, device.Accel, data, dims, 1e-4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if q.OutlierCount() < 2 {
		t.Fatalf("want escapes, got %d", q.OutlierCount())
	}
	few := *q
	few.OutVal = q.OutVal[1:]
	if _, err := Decode(tp, device.Accel, &few, dims, 1e-4); err == nil {
		t.Error("more escapes than outlier values should fail")
	}
	many := *q
	many.OutVal = append(slices.Clone(q.OutVal), 1)
	if _, err := Decode(tp, device.Accel, &many, dims, 1e-4); err == nil {
		t.Error("more outlier values than escapes should fail")
	}
	// OutIdx is not read: a wrong index list changes nothing.
	stale := *q
	stale.OutIdx = make([]uint32, len(q.OutVal)+3)
	got, err := Decode(tp, device.Accel, &stale, dims, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxAbsErr(data, got); e > boundTol(data, 1e-4) {
		t.Errorf("max error %g exceeds bound", e)
	}
}

func TestHostileMaxLevel(t *testing.T) {
	dims := grid.D1(16)
	data := smoothField(dims, 1)
	for _, ml := range []int{63, 64, 1 << 20} {
		if _, err := Encode(tp, device.Accel, data, dims, 1e-3, Config{MaxLevel: ml}); err == nil {
			t.Errorf("Encode accepted MaxLevel %d", ml)
		}
		q := &Quantized{
			Codes: make([]uint16, dims.N()), Anchors: []float32{0}, Radius: DefaultRadius, MaxLevel: ml,
			Choices: make([]byte, 3*min(ml, 100)), Orders: make([]byte, min(ml, 100)),
		}
		if _, err := Decode(tp, device.Accel, q, dims, 1e-3); err == nil {
			t.Errorf("Decode accepted MaxLevel %d", ml)
		}
	}
	// The limit itself works.
	roundtrip(t, data, dims, 1e-3, Config{MaxLevel: MaxLevelLimit})
}

// fuzzDims maps three fuzzer bytes onto a small field of rank 1–3.
func fuzzDims(x, y, z uint8) grid.Dims {
	return grid.D3(int(x)%40+1, int(y)%12+1, int(z)%6+1)
}

// fuzzStream builds a Quantized from fuzzer bytes. The low bits of shape
// decide whether the anchor and outlier value counts fit the codes (so the
// sweep runs) or are taken raw (so the count checks run).
func fuzzStream(dims grid.Dims, level uint64, radius uint16, shape uint8, codes, floats, choices, orders []byte) *Quantized {
	n := dims.N()
	q := &Quantized{Radius: int(radius), MaxLevel: int(level), Choices: choices, Orders: orders}
	q.Codes = make([]uint16, n)
	if len(codes) > 0 {
		for i := range q.Codes {
			q.Codes[i] = uint16(codes[i%len(codes)]) % (2*uint16(radius%1024) + 1)
		}
	}
	fl := make([]float32, len(floats)/4)
	for i := range fl {
		fl[i] = math.Float32frombits(binary.LittleEndian.Uint32(floats[4*i:]))
	}
	take := func(m int) []float32 {
		out := make([]float32, m)
		if len(fl) > 0 {
			for i := range out {
				out[i] = fl[i%len(fl)]
			}
		}
		return out
	}
	q.Anchors, q.OutVal = fl, fl
	if shape&1 != 0 && level >= 1 && level <= MaxLevelLimit {
		q.Anchors = take(countAnchors(dims, int(level)))
	}
	if shape&2 != 0 {
		zeros := 0
		for _, c := range q.Codes {
			if c == 0 {
				zeros++
			}
		}
		q.OutVal = take(zeros)
	}
	return q
}

func FuzzSplineDecode(f *testing.F) {
	// Seed a valid stream here; the two hostile levels that used to panic
	// (63: index out of range; 64: division by zero) are checked in under
	// testdata.
	dims := grid.D2(21, 9)
	q, err := Encode(tp, device.Accel, smoothField(dims, 5), dims, 1e-3, Config{MaxLevel: 2, Radius: 100, TuneOrder: true})
	if err != nil {
		f.Fatal(err)
	}
	codes := make([]byte, len(q.Codes))
	for i, c := range q.Codes {
		codes[i] = byte(c)
	}
	f.Add(uint8(20), uint8(8), uint8(0), uint64(2), uint16(100), uint8(3), codes, device.F32Bytes(q.Anchors), q.Choices, q.Orders)
	f.Fuzz(func(t *testing.T, x, y, z uint8, level uint64, radius uint16, shape uint8, codes, floats, choices, orders []byte) {
		dims := fuzzDims(x, y, z)
		q := fuzzStream(dims, level, radius, shape, codes, floats, choices, orders)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := Decode(tp, device.Host, q, dims, 1e-3)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(dims.N())+4096 {
			t.Fatalf("%d values: Decode allocated %d bytes", dims.N(), alloc)
		}
		if err == nil && len(out) != dims.N() {
			t.Fatalf("decoded %d values, want %d", len(out), dims.N())
		}
	})
}
