package fzmod_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"fzmod"
	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
	"fzmod/internal/serve"
	"fzmod/internal/stf"
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
		back, gotDims, _, err := fzmod.Decompress(context.Background(), p, blob, fzmod.Opts{})
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
	back, _, _, err := fzmod.Decompress(context.Background(), p, blob, fzmod.Opts{})
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
	_, _, _, err = fzmod.Decompress(context.Background(), fzmod.NewPlatform(), hostile, fzmod.Opts{})
	if err == nil {
		t.Fatal("Decompress accepted the artifact")
	}
	if errors.As(err, new(*stf.PanicError)) {
		t.Errorf("Decompress reached a panic: %v", err)
	}
}

// TestUnenforceableBoundRefused: a bound that is not finite and positive —
// or a relative bound whose resolved absolute value overflows — is refused
// up front by the chunked write (every preset), the stream write and a
// daemon POST (400). None may reach the quantizer: +Inf used to compress
// to an all-NaN field and NaN to fail deep in Lorenzo.
func TestUnenforceableBoundRefused(t *testing.T) {
	p := fzmod.NewPlatform()
	defer p.Close()
	data, dims := exampleField() // value range ≈ 3.9
	raw := device.F32Bytes(data)
	srv := httptest.NewServer(serve.New(p, serve.Config{}).Handler())
	defer srv.Close()

	for _, tc := range []struct {
		name string
		eb   fzmod.ErrorBound
	}{
		{"NaN", fzmod.Abs(math.NaN())},
		{"+Inf", fzmod.Abs(math.Inf(1))},
		{"-Inf", fzmod.Abs(math.Inf(-1))},
		{"zero", fzmod.Abs(0)},
		{"negative", fzmod.Abs(-1e-3)},
		{"relative overflow", fzmod.Rel(1e308)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, pl := range fzmod.Presets() {
				_, _, err := pl.CompressChunkedReport(p, data, dims, tc.eb, fzmod.ChunkOpts{ChunkElems: dims.X * dims.Y * 4})
				if !errors.Is(err, preprocess.ErrBadBound) {
					t.Errorf("%s chunked write: err = %v, want ErrBadBound", pl.Name(), err)
				}
			}
			_, err := fzmod.CompressStream(p, fzmod.Default(), bytes.NewReader(raw), dims, tc.eb, io.Discard, fzmod.StreamOpts{})
			if err == nil || (tc.eb.Mode == preprocess.Abs && !errors.Is(err, preprocess.ErrBadBound)) {
				t.Errorf("stream write: err = %v, want a refusal", err)
			}
			q := url.Values{
				"dims": {fmt.Sprintf("%dx%dx%d", dims.X, dims.Y, dims.Z)},
				"eb":   {strconv.FormatFloat(tc.eb.Value, 'g', -1, 64)},
				"mode": {tc.eb.Mode.String()},
			}
			resp, err := http.Post(srv.URL+"/v1/compress?"+q.Encode(), "application/octet-stream", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("daemon POST eb=%s: status %d, want 400", q.Get("eb"), resp.StatusCode)
			}
		})
	}
}
