package core

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/metrics"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

var tp = device.NewTestPlatform()

// testField returns a compressible field for pipeline tests.
func testField() ([]float32, grid.Dims) {
	dims := grid.D3(48, 40, 8)
	return sdrbench.GenCESM(dims, 11), dims
}

func checkRoundtrip(t *testing.T, pl *Pipeline, data []float32, dims grid.Dims, eb preprocess.ErrorBound) []byte {
	t.Helper()
	blob, err := pl.Compress(tp, data, dims, eb)
	if err != nil {
		t.Fatalf("%s compress: %v", pl.Name(), err)
	}
	got, gotDims, err := pl.Decompress(tp, blob)
	if err != nil {
		t.Fatalf("%s decompress: %v", pl.Name(), err)
	}
	if gotDims != dims {
		t.Fatalf("%s dims = %v, want %v", pl.Name(), gotDims, dims)
	}
	// Resolve the same absolute bound for verification.
	absEB, _, err := preprocess.Resolve(tp, device.Accel, data, eb)
	if err != nil {
		t.Fatal(err)
	}
	if i := metrics.VerifyBound(data, got, absEB); i != -1 {
		t.Fatalf("%s bound violated at %d: %v vs %v (eb %g)", pl.Name(), i, data[i], got[i], absEB)
	}
	return blob
}

func TestPresetsRoundtripAllBounds(t *testing.T) {
	data, dims := testField()
	for _, pl := range Presets() {
		for _, eb := range []float64{1e-2, 1e-4, 1e-6} {
			checkRoundtrip(t, pl, data, dims, preprocess.RelBound(eb))
		}
	}
}

func TestPresetsRoundtripAllDatasets(t *testing.T) {
	for _, ds := range sdrbench.All() {
		dims := grid.D3(24, 20, 6)
		if ds == sdrbench.HACC {
			dims = grid.D1(30000)
		}
		data := sdrbench.Generate(ds, dims, 3)
		for _, pl := range Presets() {
			checkRoundtrip(t, pl, data, dims, preprocess.RelBound(1e-3))
		}
	}
}

func TestAbsBoundRoundtrip(t *testing.T) {
	data, dims := testField()
	checkRoundtrip(t, NewDefault(), data, dims, preprocess.AbsBound(0.05))
}

func TestSecondaryEncoderShrinksStream(t *testing.T) {
	data, dims := testField()
	base := NewDefault()
	plain := checkRoundtrip(t, base, data, dims, preprocess.RelBound(1e-4))
	withSec := checkRoundtrip(t, base.WithSecondary(LZSecondary{}), data, dims, preprocess.RelBound(1e-4))
	// LZ over a Huffman stream rarely helps much, but must roundtrip and
	// must not significantly expand.
	if len(withSec) > len(plain)+len(plain)/10+256 {
		t.Errorf("secondary expanded stream: %d vs %d", len(withSec), len(plain))
	}
	if !strings.Contains(NewDefault().WithSecondary(LZSecondary{}).Name(), "+lz") {
		t.Error("secondary should be reflected in pipeline name")
	}
}

func TestSpeedTradesRatioForSimplicity(t *testing.T) {
	// The paper's §3.3 design intent: FZMod-Speed has lower CR than
	// FZMod-Default on the same data.
	data, dims := testField()
	eb := preprocess.RelBound(1e-4)
	blobD := checkRoundtrip(t, NewDefault(), data, dims, eb)
	blobS := checkRoundtrip(t, NewSpeed(), data, dims, eb)
	if len(blobS) <= len(blobD) {
		t.Errorf("expected speed pipeline CR below default: default=%d speed=%d bytes", len(blobD), len(blobS))
	}
}

func TestQualityCompetitiveWithDefault(t *testing.T) {
	// Table 3 shape: FZMod-Quality trades places with FZMod-Default per
	// dataset but stays competitive. On smooth layered climate data the
	// interpolation predictor matches or beats Lorenzo.
	dims := grid.D3(48, 48, 8)
	data := sdrbench.GenCESM(dims, 5)
	eb := preprocess.RelBound(1e-4)
	blobD := checkRoundtrip(t, NewDefault(), data, dims, eb)
	blobQ := checkRoundtrip(t, NewQuality(), data, dims, eb)
	// The paper's own CESM column has Default modestly ahead of Quality;
	// our synthetic field widens that to ~1.25x, still the same ordering.
	if float64(len(blobQ)) > 1.35*float64(len(blobD)) {
		t.Errorf("quality pipeline should be competitive on climate data: %d vs %d", len(blobQ), len(blobD))
	}
	// And on the lognormal cosmology field it stays within 30%.
	dims = grid.D3(48, 48, 48)
	data = sdrbench.GenNYX(dims, 5)
	blobD = checkRoundtrip(t, NewDefault(), data, dims, eb)
	blobQ = checkRoundtrip(t, NewQuality(), data, dims, eb)
	if float64(len(blobQ)) > 1.3*float64(len(blobD)) {
		t.Errorf("quality pipeline too far behind on NYX: %d vs %d", len(blobQ), len(blobD))
	}
}

func TestSplinePredictsBetterThanLorenzoOnSmoothData(t *testing.T) {
	// The §3.3 rationale for FZMod-Quality: higher prediction accuracy.
	dims := grid.D3(48, 48, 8)
	data := sdrbench.GenCESM(dims, 5)
	absEB, _, err := preprocess.Resolve(tp, device.Accel, data, preprocess.RelBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	lq, err := LorenzoPredictor{}.Predict(tp, device.Accel, data, dims, absEB, nil)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := NewQuality().Pred.Predict(tp, device.Accel, data, dims, absEB, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := func(codes []uint16, r int) float64 {
		n := 0
		for _, c := range codes {
			if int(c) == r {
				n++
			}
		}
		return float64(n) / float64(len(codes))
	}
	le := exact(lq.Codes, lq.Radius)
	se := exact(sq.Codes, sq.Radius)
	if se <= le {
		t.Errorf("spline exact-prediction rate %.3f should exceed lorenzo %.3f", se, le)
	}
}

// TestLorenzoReconstructOutvalLength hands Reconstruct an outval
// segment one value short and one value long of the escape count, and
// one whose length is not a whole number of int32 values; all are
// errors, and the exact segment reconstructs.
func TestLorenzoReconstructOutvalLength(t *testing.T) {
	dims := grid.D3(21, 9, 5)
	data := sdrbench.GenHACC(dims.N(), 3) // rough: many outliers
	pred, err := LorenzoPredictor{}.Predict(tp, device.Accel, data, dims, 1e-3, nil)
	if err != nil {
		t.Fatal(err)
	}
	outval := pred.Extras["outval"]
	if len(outval) < 8 {
		t.Fatalf("want at least two outliers, got %d outval bytes", len(outval))
	}
	dst := make([]float32, dims.N())
	for _, tc := range []struct {
		name    string
		seg     []byte
		wantErr bool
	}{
		{"exact", outval, false},
		{"one value short", outval[:len(outval)-4], true},
		{"one value long", append(append([]byte(nil), outval...), 1, 0, 0, 0), true},
		{"a trailing partial value", append(append([]byte(nil), outval...), 0), true},
		{"a value cut short", outval[:len(outval)-1], true},
	} {
		p := &Prediction{Codes: pred.Codes, Radius: pred.Radius, Extras: map[string][]byte{"outval": tc.seg}}
		err := LorenzoPredictor{}.Reconstruct(tp, device.Accel, p, dims, 1e-3, dst)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}

// TestSplineMetaHostile hands SplinePredictor.Reconstruct meta segments
// whose choice or order counts are uvarints ≥ 2^63, which wrapped the old
// int bound check negative and panicked the slice, and a max level past the
// spline limit; each must be an error.
func TestSplineMetaHostile(t *testing.T) {
	dims := grid.D2(21, 9)
	pred, err := SplinePredictor{}.Predict(tp, device.Accel, sdrbench.GenCESM(dims, 3), dims, 1e-3, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, dims.N())
	huge := uint64(1) << 63
	uv := binary.AppendUvarint
	for _, tc := range []struct {
		name string
		meta []byte
	}{
		{"choices count", append(uv(uv(nil, 4), huge), make([]byte, 16)...)},
		{"orders count", append(uv(append(uv(uv(nil, 4), 12), make([]byte, 12)...), huge), make([]byte, 16)...)},
		{"max level", uv(uv(uv(nil, 63), 0), 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &Prediction{Codes: pred.Codes, Radius: pred.Radius, Extras: map[string][]byte{
				"anchors": pred.Extras["anchors"], "outval": pred.Extras["outval"], "meta": tc.meta,
			}}
			if err := (SplinePredictor{}).Reconstruct(tp, device.Accel, p, dims, 1e-3, dst); err == nil {
				t.Error("hostile meta accepted")
			}
		})
	}
	// The unmodified prediction reconstructs.
	if err := (SplinePredictor{}).Reconstruct(tp, device.Accel, pred, dims, 1e-3, dst); err != nil {
		t.Fatal(err)
	}
}

func TestDecompressForeignContainerFails(t *testing.T) {
	if _, _, _, err := DecompressReportWithOpts(tp, []byte("not a container"), Opts{}); err == nil {
		t.Error("garbage input should fail")
	}
}

func TestCompressDimsMismatch(t *testing.T) {
	if _, err := NewDefault().Compress(tp, make([]float32, 7), grid.D1(8), preprocess.RelBound(1e-3)); err == nil {
		t.Error("dims mismatch should fail")
	}
}

func TestCompressBadBound(t *testing.T) {
	if _, err := NewDefault().Compress(tp, make([]float32, 8), grid.D1(8), preprocess.AbsBound(0)); err == nil {
		t.Error("zero bound should fail")
	}
}

// An unknown module name is refused with an error that lists the known
// ones; TestGoldenManifest resolves every name the table holds.
func TestModuleTableUnknownName(t *testing.T) {
	_, err := lookup("encoder", encoders, "nope")
	if err == nil || !strings.Contains(err.Error(), "huffman-topk") {
		t.Errorf("unknown encoder: error %v does not list the known ones", err)
	}
}

func TestDescribe(t *testing.T) {
	d := NewDefault().Describe()
	for _, want := range []string{"fzmod-default", "lorenzo", "huffman", "accel", "host"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q: %s", want, d)
		}
	}
}

func TestCrossPipelineDecompression(t *testing.T) {
	// A container produced by one Pipeline value decompresses through
	// another (module-table driven): the container is self-describing.
	data, dims := testField()
	blob, err := NewQuality().Compress(tp, data, dims, preprocess.RelBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := NewSpeed().Decompress(tp, blob) // different pipeline object
	if err != nil {
		t.Fatal(err)
	}
	absEB, _, _ := preprocess.Resolve(tp, device.Accel, data, preprocess.RelBound(1e-3))
	if i := metrics.VerifyBound(data, got, absEB); i != -1 {
		t.Fatalf("bound violated at %d", i)
	}
}

func TestCorruptContainerSurfacesError(t *testing.T) {
	data, dims := testField()
	blob, err := NewDefault().Compress(tp, data, dims, preprocess.RelBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), blob...)
	mut[len(mut)-10] ^= 0x55
	if _, _, _, err := DecompressReportWithOpts(tp, mut, Opts{}); err == nil {
		t.Error("corrupt container should fail CRC or decode")
	}
}

func TestHuffmanEncoderZeroRadius(t *testing.T) {
	h := HuffmanEncoder{}
	if _, err := h.EncodeCodes(tp, device.Accel, []uint16{1}, 0); err == nil {
		t.Error("zero radius should fail")
	}
}

func TestRateDistortionOrdering(t *testing.T) {
	// Tighter bounds must give higher PSNR and lower CR for each preset.
	data, dims := testField()
	for _, pl := range Presets() {
		var prevPSNR float64
		var prevSize int
		for _, eb := range []float64{1e-2, 1e-3, 1e-4} {
			blob, err := pl.Compress(tp, data, dims, preprocess.RelBound(eb))
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := pl.Decompress(tp, blob)
			if err != nil {
				t.Fatal(err)
			}
			q, err := metrics.Evaluate(tp, device.Accel, data, got)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(q.PSNR, 1) {
				continue
			}
			if q.PSNR <= prevPSNR {
				t.Errorf("%s: PSNR not increasing with tighter bound (%.1f after %.1f)", pl.Name(), q.PSNR, prevPSNR)
			}
			if len(blob) <= prevSize {
				t.Errorf("%s: stream not growing with tighter bound", pl.Name())
			}
			prevPSNR, prevSize = q.PSNR, len(blob)
		}
	}
}
