package lorenzo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/kernels/dispatch"
	"fzmod/internal/sdrbench"
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

func smooth3D(dims grid.Dims, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	px, py, pz := rng.Float64(), rng.Float64(), rng.Float64()
	out := make([]float32, dims.N())
	for z := 0; z < dims.Z; z++ {
		for y := 0; y < dims.Y; y++ {
			for x := 0; x < dims.X; x++ {
				v := math.Sin(0.11*float64(x)+px) * math.Cos(0.07*float64(y)+py) * math.Sin(0.05*float64(z)+pz)
				out[dims.Idx(x, y, z)] = float32(v)
			}
		}
	}
	return out
}

// boundTol is the roundtrip tolerance: eb plus half a float32 ULP of the
// largest data magnitude (the unavoidable output-rounding slack documented
// on the package).
func boundTol(data []float32, eb float64) float64 {
	var m float64
	for _, v := range data {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return eb + m/(1<<23) + 1e-12
}

func roundtrip(t *testing.T, data []float32, dims grid.Dims, eb float64) *Quantized {
	t.Helper()
	q, err := Encode(tp, device.Accel, data, dims, eb, 0)
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
	dims := grid.D1(5000)
	data := make([]float32, dims.N())
	for i := range data {
		data[i] = float32(math.Sin(float64(i) * 0.01))
	}
	roundtrip(t, data, dims, 1e-3)
}

func TestRoundtrip2D(t *testing.T) {
	dims := grid.D2(120, 85)
	roundtrip(t, smooth3D(dims, 1), dims, 1e-3)
}

func TestRoundtrip3D(t *testing.T) {
	dims := grid.D3(40, 33, 27)
	roundtrip(t, smooth3D(dims, 2), dims, 1e-4)
}

func TestRoundtripMultipleBounds(t *testing.T) {
	dims := grid.D3(32, 32, 16)
	data := smooth3D(dims, 3)
	for _, eb := range []float64{1e-2, 1e-3, 1e-4, 1e-5} {
		roundtrip(t, data, dims, eb)
	}
}

func TestRoughDataProducesOutliersButStaysBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dims := grid.D1(20000)
	data := make([]float32, dims.N())
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 100)
	}
	eb := 1e-3
	q := roundtrip(t, data, dims, eb)
	if q.OutlierCount() == 0 {
		t.Error("white noise at tight bound should generate outliers")
	}
}

func TestSmoothDataFewOutliers(t *testing.T) {
	dims := grid.D3(32, 32, 32)
	q := roundtrip(t, smooth3D(dims, 5), dims, 1e-3)
	if frac := float64(q.OutlierCount()) / float64(dims.N()); frac > 0.01 {
		t.Errorf("smooth data outlier fraction %.3f, want < 1%%", frac)
	}
}

func TestCodesCenteredAtRadius(t *testing.T) {
	dims := grid.D3(24, 24, 24)
	q := roundtrip(t, smooth3D(dims, 6), dims, 1e-3)
	// Smooth data → most codes near radius (zero residual).
	center := 0
	for _, c := range q.Codes {
		if int(c) >= q.Radius-2 && int(c) <= q.Radius+2 {
			center++
		}
	}
	if float64(center) < 0.5*float64(len(q.Codes)) {
		t.Errorf("only %d/%d codes near radius; predictor is not predicting", center, len(q.Codes))
	}
}

func TestConstantField(t *testing.T) {
	dims := grid.D3(16, 16, 16)
	data := make([]float32, dims.N())
	for i := range data {
		data[i] = 42.5
	}
	q := roundtrip(t, data, dims, 1e-2)
	if q.OutlierCount() > 1 {
		t.Errorf("constant field produced %d outliers", q.OutlierCount())
	}
}

func TestEncodeErrors(t *testing.T) {
	data := make([]float32, 8)
	if _, err := Encode(tp, device.Accel, data, grid.D1(9), 1e-3, 0); err == nil {
		t.Error("dims mismatch should fail")
	}
	if _, err := Encode(tp, device.Accel, data, grid.D1(8), 0, 0); err == nil {
		t.Error("zero eb should fail")
	}
	if _, err := Encode(tp, device.Accel, data, grid.D1(8), -1, 0); err == nil {
		t.Error("negative eb should fail")
	}
}

func TestLatticeOverflowDetected(t *testing.T) {
	data := []float32{1e30, -1e30}
	if _, err := Encode(tp, device.Accel, data, grid.D1(2), 1e-6, 0); err == nil {
		t.Error("huge magnitude with tiny eb should report lattice overflow")
	}
}

func TestDecodeErrors(t *testing.T) {
	q := &Quantized{Codes: make([]uint16, 4), Radius: 512}
	if _, err := Decode(tp, device.Accel, q, grid.D1(5), 1e-3); err == nil {
		t.Error("code/dims mismatch should fail")
	}
	q2 := &Quantized{Codes: make([]uint16, 4), Radius: 0}
	if _, err := Decode(tp, device.Accel, q2, grid.D1(4), 1e-3); err == nil {
		t.Error("invalid radius should fail")
	}
	q3 := &Quantized{Codes: make([]uint16, 4), Radius: 512, OutIdx: []uint32{9}, OutVal: []int32{1}}
	if _, err := Decode(tp, device.Accel, q3, grid.D1(4), 1e-3); err == nil {
		t.Error("out-of-range outlier index should fail")
	}
	q4 := &Quantized{Codes: make([]uint16, 4), Radius: 512, OutIdx: []uint32{1}, OutVal: nil}
	if _, err := Decode(tp, device.Accel, q4, grid.D1(4), 1e-3); err == nil {
		t.Error("outlier length mismatch should fail")
	}

	// Hostile payloads against the escape stream, on a shape whose rows
	// run whole vector groups and a scalar tail, under every tier. Each
	// must come back as an error, never a panic or an out-of-range read.
	dims := grid.D3(19, 3, 2)
	withEscapes := func(at ...int) []uint16 {
		codes := make([]uint16, dims.N())
		for i := range codes {
			codes[i] = 512
		}
		for _, i := range at {
			codes[i] = 0
		}
		return codes
	}
	last := dims.N() - 1
	for _, tc := range []struct {
		name string
		q    *Quantized
	}{
		{"more escapes than values", &Quantized{Codes: withEscapes(3, 40, 77), OutVal: []int32{1, 2}, Radius: 512}},
		{"fewer escapes than values", &Quantized{Codes: withEscapes(3, 40), OutVal: []int32{1, 2, 3}, Radius: 512}},
		{"escape in the last element without a value", &Quantized{Codes: withEscapes(last), Radius: 512}},
		{"every code an escape, one value short", &Quantized{Codes: make([]uint16, dims.N()), OutVal: make([]int32, last), Radius: 512}},
		{"radius 0", &Quantized{Codes: withEscapes(3), OutVal: []int32{1}, Radius: 0}},
		{"negative radius", &Quantized{Codes: withEscapes(3), OutVal: []int32{1}, Radius: -512}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forEachKernelTier(t, func(t *testing.T) {
				if _, err := Decode(tp, device.Accel, tc.q, dims, 1e-3); err == nil {
					t.Error("decoded without error")
				}
			})
		})
	}
	// The well-formed neighbour of the last-element case decodes.
	q5 := &Quantized{Codes: withEscapes(last), OutVal: []int32{7}, Radius: 512}
	if _, err := Decode(tp, device.Accel, q5, dims, 1e-3); err != nil {
		t.Errorf("escape in the last element with its value: %v", err)
	}
}

// forEachKernelTier runs f under every kernel tier this build supports,
// restoring auto-detection afterwards.
func forEachKernelTier(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func() {
		if err := dispatch.Use("auto"); err != nil {
			t.Fatalf("restoring auto tier: %v", err)
		}
	}()
	for _, tier := range dispatch.Tiers() {
		if err := dispatch.Use(tier); err != nil {
			t.Fatalf("Use(%q): %v", tier, err)
		}
		t.Run(tier, f)
	}
}

func TestCustomRadius(t *testing.T) {
	dims := grid.D2(64, 64)
	data := smooth3D(dims, 7)
	q, err := Encode(tp, device.Accel, data, dims, 1e-3, 128)
	if err != nil {
		t.Fatal(err)
	}
	if q.Radius != 128 {
		t.Errorf("radius = %d, want 128", q.Radius)
	}
	for _, c := range q.Codes {
		if int(c) >= 256 {
			t.Fatalf("code %d exceeds 2*radius-1", c)
		}
	}
	got, err := Decode(tp, device.Accel, q, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxAbsErr(data, got); e > 1e-3+1e-12 {
		t.Errorf("custom radius roundtrip error %g", e)
	}
}

func TestNonPowerOfTwoDims(t *testing.T) {
	dims := grid.D3(17, 13, 11)
	roundtrip(t, smooth3D(dims, 8), dims, 1e-3)
}

func TestSingleElement(t *testing.T) {
	roundtrip(t, []float32{3.14159}, grid.D1(1), 1e-4)
}

// Property: for random smooth-ish fields at random bounds, the roundtrip
// respects the bound and the encoder is deterministic.
func TestPropertyBoundHolds(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		dims := grid.D3(5+rng.Intn(20), 5+rng.Intn(20), 1+rng.Intn(10))
		data := make([]float32, dims.N())
		acc := float32(0)
		for i := range data {
			acc += float32(rng.NormFloat64() * 0.1) // random walk = locally smooth
			data[i] = acc
		}
		eb := math.Pow(10, -1-3*rng.Float64())
		q1 := roundtrip(t, data, dims, eb)
		q2, err := Encode(tp, device.Accel, data, dims, eb, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(q1.OutVal) != len(q2.OutVal) {
			t.Fatalf("trial %d: encoder nondeterministic", trial)
		}
		for i := range q1.Codes {
			if q1.Codes[i] != q2.Codes[i] {
				t.Fatalf("trial %d: encoder nondeterministic at %d", trial, i)
			}
		}
	}
}

// refQuantized is a deliberately naive re-implementation of the historical
// three-phase encoder (pre-quantize, per-element closure residual, flag
// compaction) used as the reference the fused rank-specialized kernels
// must match bit for bit.
func refQuantized(t *testing.T, data []float32, dims grid.Dims, eb float64, radius int) *Quantized {
	t.Helper()
	if radius <= 0 {
		radius = DefaultRadius
	}
	n := dims.N()
	ebx2r := 1.0 / (2 * eb)
	q := make([]int32, n)
	for i, v := range data {
		r := math.Round(float64(v) * ebx2r)
		if r > maxLattice || r < -maxLattice {
			t.Fatal("reference overflow; pick tamer test data")
		}
		q[i] = int32(r)
	}
	at := func(x, y, z int) int32 {
		if x < 0 || y < 0 || z < 0 {
			return 0
		}
		return q[dims.Idx(x, y, z)]
	}
	out := &Quantized{Codes: make([]uint16, n), Radius: radius}
	r32 := int32(radius)
	for i := 0; i < n; i++ {
		x, y, z := dims.Coords(i)
		d := q[i] -
			at(x-1, y, z) - at(x, y-1, z) - at(x, y, z-1) +
			at(x-1, y-1, z) + at(x-1, y, z-1) + at(x, y-1, z-1) -
			at(x-1, y-1, z-1)
		if d > -r32 && d < r32 {
			out.Codes[i] = uint16(d + r32)
		} else {
			out.OutIdx = append(out.OutIdx, uint32(i))
			out.OutVal = append(out.OutVal, d)
		}
	}
	return out
}

// TestFusedMatchesReference pins the fused kernels to the naive reference:
// identical codes and an identical sorted outlier stream across ranks,
// non-power-of-two extents, and multi-block decompositions (the test
// platform runs 4 accelerator workers, so slow extents above 4 split).
func TestFusedMatchesReference(t *testing.T) {
	for _, dims := range []grid.Dims{
		grid.D1(1), grid.D1(7), grid.D1(20000),
		grid.D2(33, 19), grid.D2(128, 9),
		grid.D3(17, 13, 11), grid.D3(40, 33, 27), grid.D3(8, 8, 3),
	} {
		rng := rand.New(rand.NewSource(int64(dims.N())))
		data := make([]float32, dims.N())
		acc := float32(0)
		for i := range data {
			if rng.Intn(64) == 0 {
				acc += float32(rng.NormFloat64() * 50) // jump → outlier
			}
			acc += float32(rng.NormFloat64() * 0.05)
			data[i] = acc
		}
		eb := 1e-3
		want := refQuantized(t, data, dims, eb, 0)
		got, err := Encode(tp, device.Accel, data, dims, eb, 0)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		for i := range want.Codes {
			if got.Codes[i] != want.Codes[i] {
				t.Fatalf("%v: code mismatch at %d: %d vs %d", dims, i, got.Codes[i], want.Codes[i])
			}
		}
		gotIdx := escapes(got.Codes)
		if len(gotIdx) != len(want.OutIdx) || len(got.OutVal) != len(want.OutVal) {
			t.Fatalf("%v: %d escapes and %d outlier values, want %d", dims, len(gotIdx), len(got.OutVal), len(want.OutIdx))
		}
		for j := range want.OutIdx {
			if gotIdx[j] != want.OutIdx[j] || got.OutVal[j] != want.OutVal[j] {
				t.Fatalf("%v: outlier %d = (%d,%d), want (%d,%d)", dims, j,
					gotIdx[j], got.OutVal[j], want.OutIdx[j], want.OutVal[j])
			}
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

// refDecode is the historical five-pass decoder, kept as the reference
// the one-pass row decoder must match bit for bit: residuals from the
// codes into a field-sized int32 lattice, outlier values scattered by
// index, prefix sums along x, then y, then z (wrapping int32), then the
// scale to float32.
func refDecode(q *Quantized, dims grid.Dims, eb float64) []float32 {
	n := dims.N()
	lat := make([]int32, n)
	r32 := int32(q.Radius)
	for i, c := range q.Codes {
		if c != 0 {
			lat[i] = int32(c) - r32
		}
	}
	for j, idx := range q.OutIdx {
		lat[idx] = q.OutVal[j]
	}
	for z := 0; z < dims.Z; z++ {
		for y := 0; y < dims.Y; y++ {
			for x := 1; x < dims.X; x++ {
				lat[dims.Idx(x, y, z)] += lat[dims.Idx(x-1, y, z)]
			}
		}
	}
	for z := 0; z < dims.Z; z++ {
		for y := 1; y < dims.Y; y++ {
			for x := 0; x < dims.X; x++ {
				lat[dims.Idx(x, y, z)] += lat[dims.Idx(x, y-1, z)]
			}
		}
	}
	for z := 1; z < dims.Z; z++ {
		for y := 0; y < dims.Y; y++ {
			for x := 0; x < dims.X; x++ {
				lat[dims.Idx(x, y, z)] += lat[dims.Idx(x, y, z-1)]
			}
		}
	}
	out := make([]float32, n)
	scale := 2 * eb
	for i, v := range lat {
		out[i] = float32(float64(v) * scale)
	}
	return out
}

// TestDecodeMatchesReference pins the one-pass decoder to refDecode under
// every kernel tier: ranks 1–3, row widths through the vector group size
// and around 64, escape densities from none to every code, and outlier
// values near ±maxLattice so the running sums wrap int32.
func TestDecodeMatchesReference(t *testing.T) {
	widths := []int{63, 64, 65}
	for nx := 1; nx <= 17; nx++ {
		widths = append(widths, nx)
	}
	densities := []int{0, 1000, 3, 1} // one escape in this many codes; 0 = none
	const eb = 1e-3
	forEachKernelTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		for _, nx := range widths {
			for _, dims := range []grid.Dims{grid.D1(nx), grid.D2(nx, 5), grid.D3(nx, 4, 3)} {
				for _, every := range densities {
					q := &Quantized{Codes: make([]uint16, dims.N()), Radius: DefaultRadius}
					for i := range q.Codes {
						if every > 0 && rng.Intn(every) == 0 {
							q.OutIdx = append(q.OutIdx, uint32(i))
							v := int32(maxLattice - rng.Intn(1000))
							if rng.Intn(2) == 0 {
								v = -v
							}
							q.OutVal = append(q.OutVal, v)
							continue
						}
						q.Codes[i] = uint16(1 + rng.Intn(2*DefaultRadius-1))
					}
					want := refDecode(q, dims, eb)
					got, err := Decode(tp, device.Accel, q, dims, eb)
					if err != nil {
						t.Fatalf("%v 1/%d escapes: %v", dims, every, err)
					}
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%v 1/%d escapes: out[%d] = %v, want %v", dims, every, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// TestOverflowContract exercises the documented overflow contract under
// every kernel tier: a value beyond the lattice guard, NaN or ±Inf yields
// an error — at the start of a row, either side of the first vector group
// edge or in the scalar tail, and in any block of a parallel
// decomposition or the halo plane a block quantizes from the block before
// — and the pooled scratch all comes back.
func TestOverflowContract(t *testing.T) {
	dims := grid.D3(19, 16, 16)
	base := smooth3D(dims, 9)
	bad := []float32{1e30, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	forEachKernelTier(t, func(t *testing.T) {
		for _, v := range bad {
			for _, x := range []int{0, 7, 8, dims.X - 1} {
				// With 4 test-platform workers the 16 planes split into
				// 4-plane blocks, so planes 3 and 7 are also the halo
				// planes of the blocks after them.
				for _, plane := range []int{0, 3, 4, 7, 15} {
					data := make([]float32, dims.N())
					copy(data, base)
					data[dims.Idx(x, 5, plane)] = v
					codes := make([]uint16, dims.N())
					if _, err := EncodeInto(tp, device.Accel, data, dims, 1e-6, 0, codes); err == nil {
						t.Fatalf("%v at x=%d in plane %d: overflow must be reported", v, x, plane)
					}
					if st := tp.ScratchPool().Stats(); st.Gets != st.Puts {
						t.Fatalf("%v at x=%d in plane %d: overflow path leaked pool slabs: %d gets, %d puts", v, x, plane, st.Gets, st.Puts)
					}
				}
			}
		}
	})
}

func TestDecodeIntoMatchesDecode(t *testing.T) {
	dims := grid.D3(24, 17, 9)
	data := smooth3D(dims, 10)
	q, err := Encode(tp, device.Accel, data, dims, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(tp, device.Accel, q, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, dims.N())
	if err := DecodeInto(tp, device.Accel, q, dims, 1e-3, dst); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
	if err := DecodeInto(tp, device.Accel, q, dims, 1e-3, dst[:5]); err == nil {
		t.Error("short output buffer must fail")
	}
}

// benchKernelTiers runs f once per kernel implementation tier this build
// supports (purego plus the vector tier, when present), so one run reports
// before/after numbers for the dispatch layer.
func benchKernelTiers(b *testing.B, f func(b *testing.B)) {
	b.Helper()
	defer func() { _ = dispatch.Use("auto") }()
	for _, tier := range dispatch.Tiers() {
		if err := dispatch.Use(tier); err != nil {
			b.Fatalf("Use(%q): %v", tier, err)
		}
		b.Run(tier, f)
	}
}

// benchShape is one chunk a Lorenzo workload codes: its dims, values and
// absolute bound.
type benchShape struct {
	dims grid.Dims
	data []float32
	eb   float64
}

// lorenzoBenchShapes are the chunk shapes of the benchmark workloads that
// run Lorenzo, each from its dataset's generator at the workload's
// relative bound: a nyx-default chunk (80³), a hurr-speed chunk
// (160×160×8) and a hacc-default chunk (512 Ki values, 1-D, about one
// escape in eight codes).
func lorenzoBenchShapes() []benchShape {
	shape := func(dims grid.Dims, data []float32, rel float64) benchShape {
		mn, mx := dispatch.MinMaxF32(data)
		return benchShape{dims, data, rel * float64(mx-mn)}
	}
	nyx, hurr := grid.D3(80, 80, 80), grid.D3(160, 160, 8)
	return []benchShape{
		shape(nyx, sdrbench.GenNYX(nyx, 1), 1e-4),
		shape(hurr, sdrbench.GenHURR(hurr, 1), 1e-2),
		shape(grid.D1(1<<19), sdrbench.GenHACC(1<<19, 1), 1e-4),
	}
}

// BenchmarkLorenzoQuantize encodes each of lorenzoBenchShapes under every
// kernel tier on one worker, as a chunk task does; with
// BenchmarkLorenzoReconstruct, one run gives encode ÷ decode per shape.
func BenchmarkLorenzoQuantize(b *testing.B) {
	p := tp.WithWorkers(1)
	for _, c := range lorenzoBenchShapes() {
		codes := make([]uint16, c.dims.N())
		b.Run(fmt.Sprintf("%dx%dx%d", c.dims.X, c.dims.Y, c.dims.Z), func(b *testing.B) {
			benchKernelTiers(b, func(b *testing.B) {
				b.SetBytes(int64(4 * c.dims.N()))
				for i := 0; i < b.N; i++ {
					if _, err := EncodeInto(p, device.Accel, c.data, c.dims, c.eb, 0, codes); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkLorenzoReconstruct decodes each of lorenzoBenchShapes under
// every kernel tier.
func BenchmarkLorenzoReconstruct(b *testing.B) {
	for _, c := range lorenzoBenchShapes() {
		q, err := Encode(tp, device.Accel, c.data, c.dims, c.eb, 0)
		if err != nil {
			b.Fatal(err)
		}
		out := make([]float32, c.dims.N())
		b.Run(fmt.Sprintf("%dx%dx%d", c.dims.X, c.dims.Y, c.dims.Z), func(b *testing.B) {
			benchKernelTiers(b, func(b *testing.B) {
				b.SetBytes(int64(4 * c.dims.N()))
				for i := 0; i < b.N; i++ {
					if err := DecodeInto(tp, device.Accel, q, c.dims, c.eb, out); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
