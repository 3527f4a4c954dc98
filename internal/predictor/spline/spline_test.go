package spline

import (
	"math"
	"math/rand"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/grid"
)

var tp = device.NewTestPlatform()

func maxAbsErr(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}

func boundTol(data []float32, eb float64) float64 {
	var m float64
	for _, v := range data {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return eb + m/(1<<23) + 1e-12
}

func smoothField(dims grid.Dims, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	p1, p2, p3 := rng.Float64(), rng.Float64(), rng.Float64()
	out := make([]float32, dims.N())
	for z := 0; z < dims.Z; z++ {
		for y := 0; y < dims.Y; y++ {
			for x := 0; x < dims.X; x++ {
				v := 3*math.Sin(0.05*float64(x)+p1)*math.Cos(0.04*float64(y)+p2) +
					math.Sin(0.03*float64(z)+p3)
				out[dims.Idx(x, y, z)] = float32(v)
			}
		}
	}
	return out
}

func roundtrip(t *testing.T, data []float32, dims grid.Dims, eb float64, cfg Config) *Quantized {
	t.Helper()
	q, err := Encode(tp, device.Accel, data, dims, eb, cfg)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(tp, device.Accel, q, dims, eb)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if e := maxAbsErr(data, got); e > boundTol(data, eb) {
		t.Fatalf("dims %v eb %g: max error %g exceeds bound", dims, eb, e)
	}
	return q
}

func TestRoundtrip1D(t *testing.T) {
	dims := grid.D1(3000)
	data := make([]float32, dims.N())
	for i := range data {
		data[i] = float32(math.Sin(float64(i) * 0.02))
	}
	roundtrip(t, data, dims, 1e-3, Config{})
}

func TestRoundtrip2D(t *testing.T) {
	dims := grid.D2(100, 90)
	roundtrip(t, smoothField(dims, 1), dims, 1e-3, Config{})
}

func TestRoundtrip3D(t *testing.T) {
	dims := grid.D3(48, 40, 32)
	roundtrip(t, smoothField(dims, 2), dims, 1e-4, Config{})
}

func TestRoundtripAllModes(t *testing.T) {
	dims := grid.D3(33, 29, 17)
	data := smoothField(dims, 3)
	for _, mode := range []InterpMode{Cubic, Linear, Auto} {
		roundtrip(t, data, dims, 1e-3, Config{Mode: mode})
	}
}

func TestRoundtripVariousLevels(t *testing.T) {
	dims := grid.D2(70, 50)
	data := smoothField(dims, 4)
	for _, ml := range []int{1, 2, 3, 5, 6} {
		q := roundtrip(t, data, dims, 1e-3, Config{MaxLevel: ml})
		if q.MaxLevel != ml {
			t.Errorf("MaxLevel = %d, want %d", q.MaxLevel, ml)
		}
	}
}

func TestHigherAccuracyThanLorenzoOnSmoothData(t *testing.T) {
	// The paper's reason for FZMod-Quality: interpolation predicts smooth
	// fields better, concentrating codes near the center. Verify code
	// concentration exceeds a Lorenzo-like baseline expectation.
	dims := grid.D3(64, 64, 32)
	data := smoothField(dims, 5)
	q := roundtrip(t, data, dims, 1e-4, Config{})
	exact := 0
	for _, c := range q.Codes {
		if c == uint16(q.Radius) {
			exact++
		}
	}
	if frac := float64(exact) / float64(len(q.Codes)); frac < 0.3 {
		t.Errorf("only %.2f of codes are exact-prediction; interpolation quality suspect", frac)
	}
}

func TestAnchorsExact(t *testing.T) {
	dims := grid.D2(40, 40)
	data := smoothField(dims, 6)
	q, err := Encode(tp, device.Accel, data, dims, 1e-3, Config{MaxLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(tp, device.Accel, q, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	s := 8
	for y := 0; y < dims.Y; y += s {
		for x := 0; x < dims.X; x += s {
			i := dims.Idx(x, y, 0)
			if got[i] != data[i] {
				t.Fatalf("anchor (%d,%d) not exact: %v vs %v", x, y, got[i], data[i])
			}
		}
	}
}

func TestOutliersOnRoughData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := grid.D1(10000)
	data := make([]float32, dims.N())
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 50)
	}
	q := roundtrip(t, data, dims, 1e-4, Config{})
	if q.OutlierCount() == 0 {
		t.Error("white noise should force outliers")
	}
}

func TestAutoModeRecordsChoices(t *testing.T) {
	dims := grid.D2(80, 80)
	data := smoothField(dims, 8)
	q, err := Encode(tp, device.Accel, data, dims, 1e-3, Config{Mode: Auto})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Choices) != 3*q.MaxLevel {
		t.Fatalf("choices len = %d, want %d", len(q.Choices), 3*q.MaxLevel)
	}
	for _, c := range q.Choices {
		if c > 1 {
			t.Fatalf("choice byte %d not in {0,1}", c)
		}
	}
}

func TestLinearVsCubicDiffer(t *testing.T) {
	// On a cubic polynomial field, cubic interpolation should produce
	// more exact predictions than linear.
	dims := grid.D1(2048)
	data := make([]float32, dims.N())
	for i := range data {
		x := float64(i) / 100
		data[i] = float32(0.01*x*x*x - 0.3*x*x + x)
	}
	qc, err := Encode(tp, device.Accel, data, dims, 1e-5, Config{Mode: Cubic})
	if err != nil {
		t.Fatal(err)
	}
	ql, err := Encode(tp, device.Accel, data, dims, 1e-5, Config{Mode: Linear})
	if err != nil {
		t.Fatal(err)
	}
	exact := func(q *Quantized) int {
		n := 0
		for _, c := range q.Codes {
			if c == uint16(q.Radius) {
				n++
			}
		}
		return n
	}
	if exact(qc) <= exact(ql) {
		t.Errorf("cubic exact=%d should beat linear exact=%d on cubic data", exact(qc), exact(ql))
	}
}

func TestEncodeErrors(t *testing.T) {
	data := make([]float32, 8)
	if _, err := Encode(tp, device.Accel, data, grid.D1(9), 1e-3, Config{}); err == nil {
		t.Error("dims mismatch should fail")
	}
	if _, err := Encode(tp, device.Accel, data, grid.D1(8), -1e-3, Config{}); err == nil {
		t.Error("negative eb should fail")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(tp, device.Accel, &Quantized{Codes: make([]uint16, 3)}, grid.D1(4), 1e-3); err == nil {
		t.Error("code length mismatch should fail")
	}
	q := &Quantized{Codes: make([]uint16, 4), Radius: 512, MaxLevel: 2, Choices: make([]byte, 6)}
	if _, err := Decode(tp, device.Accel, q, grid.D1(4), 1e-3); err == nil {
		t.Error("anchor count mismatch should fail")
	}
	q2 := &Quantized{Codes: make([]uint16, 4), Radius: 0, MaxLevel: 2}
	if _, err := Decode(tp, device.Accel, q2, grid.D1(4), 1e-3); err == nil {
		t.Error("invalid radius should fail")
	}
	q3 := &Quantized{Codes: make([]uint16, 4), Radius: 512, MaxLevel: 2, Choices: make([]byte, 1)}
	if _, err := Decode(tp, device.Accel, q3, grid.D1(4), 1e-3); err == nil {
		t.Error("short choices should fail")
	}
}

func TestOddDims(t *testing.T) {
	dims := grid.D3(31, 19, 7)
	roundtrip(t, smoothField(dims, 9), dims, 1e-3, Config{})
}

func TestTinyField(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		dims := grid.D1(n)
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(i) * 1.5
		}
		roundtrip(t, data, dims, 1e-3, Config{})
	}
}

func TestPropertyBoundHolds(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(200 + trial)))
		dims := grid.D3(4+rng.Intn(30), 4+rng.Intn(30), 1+rng.Intn(8))
		data := make([]float32, dims.N())
		acc := float32(0)
		for i := range data {
			acc += float32(rng.NormFloat64() * 0.05)
			data[i] = acc
		}
		eb := math.Pow(10, -1-3*rng.Float64())
		mode := []InterpMode{Cubic, Linear, Auto}[trial%3]
		roundtrip(t, data, dims, eb, Config{Mode: mode, MaxLevel: 1 + rng.Intn(5)})
	}
}

func TestDeterministic(t *testing.T) {
	dims := grid.D2(60, 44)
	data := smoothField(dims, 10)
	q1, _ := Encode(tp, device.Accel, data, dims, 1e-3, Config{Mode: Auto})
	q2, _ := Encode(tp, device.Accel, data, dims, 1e-3, Config{Mode: Auto})
	if len(q1.Codes) != len(q2.Codes) || len(q1.OutVal) != len(q2.OutVal) {
		t.Fatal("nondeterministic encode")
	}
	for i := range q1.Codes {
		if q1.Codes[i] != q2.Codes[i] {
			t.Fatalf("nondeterministic code at %d", i)
		}
	}
}

func TestDecodeRejectsBadOrders(t *testing.T) {
	dims := grid.D2(20, 20)
	data := smoothField(dims, 30)
	q, err := Encode(tp, device.Accel, data, dims, 1e-3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := *q
	bad.Orders = []byte{9, 0, 0, 0} // invalid permutation index
	if _, err := Decode(tp, device.Accel, &bad, dims, 1e-3); err == nil {
		t.Error("invalid order byte should fail")
	}
	short := *q
	short.Orders = q.Orders[:1]
	if _, err := Decode(tp, device.Accel, &short, dims, 1e-3); err == nil {
		t.Error("short orders should fail")
	}
}

func TestOrderTuningPrefersGoodDimensionLast(t *testing.T) {
	// Field smooth along x, rough along y: tuning should schedule y (the
	// bad dimension) before x so x predicts the final, largest phase.
	dims := grid.D2(64, 64)
	rng := rand.New(rand.NewSource(31))
	data := make([]float32, dims.N())
	rowOffsets := make([]float32, dims.Y)
	for y := range rowOffsets {
		rowOffsets[y] = float32(rng.NormFloat64() * 10)
	}
	for y := 0; y < dims.Y; y++ {
		for x := 0; x < dims.X; x++ {
			data[dims.Idx(x, y, 0)] = rowOffsets[y] + float32(math.Sin(0.05*float64(x)))
		}
	}
	qt, err := Encode(tp, device.Accel, data, dims, 1e-4, Config{TuneOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	qf, err := Encode(tp, device.Accel, data, dims, 1e-4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	exact := func(q *Quantized) int {
		n := 0
		for _, c := range q.Codes {
			if c == uint16(q.Radius) {
				n++
			}
		}
		return n
	}
	if exact(qt) <= exact(qf) {
		t.Errorf("order tuning should raise exact predictions: tuned %d vs fixed %d", exact(qt), exact(qf))
	}
	// And the tuned stream must still roundtrip within bound.
	got, err := Decode(tp, device.Accel, qt, dims, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxAbsErr(data, got); e > boundTol(data, 1e-4) {
		t.Errorf("tuned roundtrip error %g", e)
	}
}

func TestLevelEB(t *testing.T) {
	if LevelEB(1.0, 1) != 1.0 || LevelEB(1.0, 2) != 0.5 || LevelEB(1.0, 3) != 0.25 || LevelEB(1.0, 5) != 0.25 {
		t.Error("LevelEB schedule")
	}
	if LevelEB(1.0, 0) != 1.0 {
		t.Error("LevelEB floor")
	}
}

// TestIntoDirtyBuffers: EncodeInto and DecodeInto write every slot of the
// caller's buffers, so slices full of sentinels (0xFFFF codes, NaN values)
// give exactly what the allocating Encode and Decode give, over ranks,
// extents off the anchor lattice and every interpolant mode; a buffer of
// the wrong length is refused.
func TestIntoDirtyBuffers(t *testing.T) {
	for _, dims := range []grid.Dims{grid.D1(1), grid.D1(37), grid.D2(33, 17), grid.D3(19, 9, 5), grid.D3(16, 16, 16)} {
		data := smoothField(dims, 9)
		for _, cfg := range []Config{{}, {Mode: Linear}, {Mode: Auto, TuneOrder: true}, {MaxLevel: 2}} {
			want, err := Encode(tp, device.Accel, data, dims, 1e-3, cfg)
			if err != nil {
				t.Fatal(err)
			}
			codes := make([]uint16, dims.N())
			for i := range codes {
				codes[i] = 0xFFFF
			}
			got, err := EncodeInto(tp, device.Accel, data, dims, 1e-3, cfg, codes)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Codes {
				if got.Codes[i] != want.Codes[i] {
					t.Fatalf("%v %+v: code %d is %d, want %d", dims, cfg, i, got.Codes[i], want.Codes[i])
				}
			}
			if len(got.OutVal) != len(want.OutVal) {
				t.Fatalf("%v %+v: %d outliers, want %d", dims, cfg, len(got.OutVal), len(want.OutVal))
			}
			vals, err := Decode(tp, device.Accel, want, dims, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]float32, dims.N())
			for i := range dst {
				dst[i] = float32(math.NaN())
			}
			if _, err := DecodeInto(tp, device.Accel, want, dims, 1e-3, dst); err != nil {
				t.Fatal(err)
			}
			for i := range vals {
				if math.Float32bits(dst[i]) != math.Float32bits(vals[i]) {
					t.Fatalf("%v %+v: value %d is %v, want %v", dims, cfg, i, dst[i], vals[i])
				}
			}
		}
		if _, err := EncodeInto(tp, device.Accel, data, dims, 1e-3, Config{}, make([]uint16, dims.N()+1)); err == nil {
			t.Errorf("%v: EncodeInto accepted a codes buffer one too long", dims)
		}
		q, _ := Encode(tp, device.Accel, data, dims, 1e-3, Config{})
		if _, err := DecodeInto(tp, device.Accel, q, dims, 1e-3, make([]float32, dims.N()+1)); err == nil {
			t.Errorf("%v: DecodeInto accepted an output buffer one too long", dims)
		}
	}
}
