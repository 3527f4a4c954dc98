package fzmod_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"fzmod"
	"fzmod/internal/fzio"
	"fzmod/internal/sdrbench"
)

func facadeField() ([]float32, fzmod.Dims) {
	dims := fzmod.Dims3(32, 32, 8)
	return sdrbench.GenHURR(dims, 7), dims
}

func TestFacadeRoundtrip(t *testing.T) {
	p := fzmod.NewPlatform()
	data, dims := facadeField()
	for _, pl := range fzmod.Presets() {
		blob, err := pl.Compress(p, data, dims, fzmod.Rel(1e-3))
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		back, gotDims, err := fzmod.Decompress(p, blob)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if gotDims != dims {
			t.Fatalf("%s: dims %v", pl.Name(), gotDims)
		}
		q, err := fzmod.Evaluate(p, data, back)
		if err != nil {
			t.Fatal(err)
		}
		if q.PSNR < 40 {
			t.Errorf("%s: PSNR %.1f suspiciously low at 1e-3", pl.Name(), q.PSNR)
		}
	}
}

func TestFacadeBoundHelpers(t *testing.T) {
	if fzmod.Rel(1e-3).Value != 1e-3 || fzmod.Abs(0.5).Value != 0.5 {
		t.Error("bound constructors")
	}
	if fzmod.Rel(1e-3).Mode == fzmod.Abs(1e-3).Mode {
		t.Error("Rel and Abs must differ in mode")
	}
}

func TestFacadeDimsHelpers(t *testing.T) {
	if fzmod.Dims1(9).N() != 9 || fzmod.Dims2(3, 4).N() != 12 || fzmod.Dims3(2, 2, 2).N() != 8 {
		t.Error("dims helpers")
	}
}

func TestFacadeSecondary(t *testing.T) {
	p := fzmod.NewPlatform()
	data, dims := facadeField()
	pl := fzmod.WithZstdSlot(fzmod.Speed())
	blob, err := pl.Compress(p, data, dims, fzmod.Rel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := fzmod.Decompress(p, blob)
	if err != nil {
		t.Fatal(err)
	}
	var maxAbs float64
	for _, v := range data {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	// Rel 1e-3 of the HURR range; generous check that the data came back.
	if i := fzmod.VerifyBound(data, back, 1e-3*2*maxAbs); i != -1 {
		t.Errorf("bound violated at %d", i)
	}
}

func TestFacadeMetrics(t *testing.T) {
	if fzmod.CompressionRatio(100, 10) != 10 {
		t.Error("CompressionRatio")
	}
	if s := fzmod.OverallSpeedup(200, 100, 2); math.Abs(s-1) > 1e-9 {
		t.Errorf("OverallSpeedup = %v", s)
	}
}

func TestFacadePlatforms(t *testing.T) {
	if fzmod.NewPlatform().LinkBandwidth <= fzmod.NewV100Platform().LinkBandwidth {
		t.Error("H100 default platform should have higher link bandwidth")
	}
}

func TestFacadeQualityPipelineName(t *testing.T) {
	if fzmod.QualityPipeline().Name() != "fzmod-quality" {
		t.Error("quality preset name")
	}
	if fzmod.Default().Name() != "fzmod-default" || fzmod.Speed().Name() != "fzmod-speed" {
		t.Error("preset names")
	}
}

func TestFacadeStreamRoundtrip(t *testing.T) {
	p := fzmod.NewPlatform()
	data, dims := facadeField()
	mn, mx := data[0], data[0]
	for _, v := range data {
		mn, mx = min(mn, v), max(mx, v)
	}
	absEB := 1e-3 * float64(mx-mn)

	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	var stream bytes.Buffer
	written, err := fzmod.CompressStream(p, fzmod.Default(), bytes.NewReader(raw), dims,
		fzmod.Abs(absEB), &stream, fzmod.StreamOpts{ChunkElems: dims.N() / 4, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if written != int64(stream.Len()) || written == 0 {
		t.Fatalf("written %d, buffer %d", written, stream.Len())
	}
	var out bytes.Buffer
	gotDims, err := fzmod.DecompressStream(p, &stream, &out, fzmod.StreamOpts{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if gotDims != dims {
		t.Fatalf("dims %v, want %v", gotDims, dims)
	}
	for i := 0; i < dims.N(); i++ {
		got := math.Float32frombits(binary.LittleEndian.Uint32(out.Bytes()[4*i:]))
		if d := math.Abs(float64(got) - float64(data[i])); d > absEB {
			t.Fatalf("bound %g violated at %d: diff %g", absEB, i, d)
		}
	}
}

// An FZMD whose one segment declares 2^63 bytes — a length that reads as
// negative once converted to int — costs an ordinary error at every
// facade door: the survey classifies it, Decompress refuses it, and no
// task panics on the way.
func TestFacadeSegmentLengthWrap(t *testing.T) {
	c := fzio.New(fzio.Header{Pipeline: "p", Dims: fzmod.Dims1(4), EB: 0.5})
	if err := c.Add("s", nil); err != nil {
		t.Fatal(err)
	}
	blob, err := c.Marshal() // ends: "s" ‖ uvarint length 0 ‖ CRC32
	if err != nil {
		t.Fatal(err)
	}
	n := len(blob)
	hostile := binary.AppendUvarint(append([]byte(nil), blob[:n-5]...), 1<<63)
	hostile = append(hostile, blob[n-4:]...)

	s, err := fzmod.SurveyArtifact(fzmod.NewBytesFetcher(hostile))
	if err != nil {
		t.Fatalf("SurveyArtifact: %v", err)
	}
	if !s.Damaged() || len(s.Chunks) != 1 || s.Chunks[0].State != fzmod.ChunkCorrupt {
		t.Errorf("survey = %+v, want one corrupt chunk", s.Chunks)
	}
	_, _, err = fzmod.Decompress(fzmod.NewPlatform(), hostile)
	if err == nil {
		t.Fatal("Decompress accepted the artifact")
	}
	if strings.Contains(err.Error(), "panicked") {
		t.Errorf("Decompress reached a panic: %v", err)
	}
}
