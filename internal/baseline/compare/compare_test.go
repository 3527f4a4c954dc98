// Package compare cross-checks the relative behaviour of all seven
// compressors (three FZModules pipelines + four baselines) against the
// qualitative shape of the paper's Table 3 and Figure 4.
package compare

import (
	"hash/crc32"
	"testing"

	"fzmod/internal/baseline/cuszp2"
	"fzmod/internal/baseline/fzgpu"
	"fzmod/internal/baseline/pfpl"
	"fzmod/internal/baseline/sz3"
	"fzmod/internal/core"
	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/metrics"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

var tp = device.NewTestPlatform()

func all() []core.Compressor {
	out := []core.Compressor{}
	for _, pl := range core.Presets() {
		out = append(out, pl)
	}
	return append(out,
		cuszp2.Compressor{}, fzgpu.Compressor{}, pfpl.Compressor{}, sz3.New())
}

func ratioOf(t *testing.T, c core.Compressor, data []float32, dims grid.Dims, eb float64) float64 {
	t.Helper()
	blob, err := c.Compress(tp, data, dims, preprocess.RelBound(eb))
	if err != nil {
		t.Fatalf("%s: %v", c.Name(), err)
	}
	got, _, err := c.Decompress(tp, blob)
	if err != nil {
		t.Fatalf("%s: %v", c.Name(), err)
	}
	absEB, _, _ := preprocess.Resolve(tp, device.Host, data, preprocess.RelBound(eb))
	if i := metrics.VerifyBound(data, got, absEB); i != -1 {
		t.Fatalf("%s: bound violated at %d (%v vs %v)", c.Name(), i, data[i], got[i])
	}
	return metrics.CompressionRatio(4*dims.N(), len(blob))
}

func TestEverythingRoundtripsEverywhere(t *testing.T) {
	for _, ds := range sdrbench.All() {
		dims := grid.D3(20, 18, 6)
		if ds == sdrbench.HACC {
			dims = grid.D1(20000)
		}
		data := sdrbench.Generate(ds, dims, 9)
		for _, c := range all() {
			ratioOf(t, c, data, dims, 1e-3)
		}
	}
}

func TestSZ3HasBestRatioOnSmoothData(t *testing.T) {
	// Table 3 headline: "SZ3 has the best compression ratio across the
	// board" — assert it on the two smooth datasets at two bounds.
	// Larger grids than the other tests: SZ3's wide-alphabet Huffman
	// table is a fixed cost that only amortizes at realistic sizes.
	for _, ds := range []sdrbench.Dataset{sdrbench.CESM, sdrbench.NYX} {
		dims := grid.D3(64, 64, 16)
		if ds == sdrbench.NYX {
			dims = grid.D3(48, 48, 48)
		}
		data := sdrbench.Generate(ds, dims, 10)
		for _, eb := range []float64{1e-2, 1e-4} {
			best := ""
			bestCR := 0.0
			for _, c := range all() {
				cr := ratioOf(t, c, data, dims, eb)
				if cr > bestCR {
					bestCR, best = cr, c.Name()
				}
			}
			if best != "sz3" {
				t.Errorf("%v eb %g: best CR is %s (%.1f), paper shape says sz3", ds, eb, best, bestCR)
			}
		}
	}
}

func TestSpeedPipelineLowestRatioAmongFZMod(t *testing.T) {
	// Table 3: FZMod-Speed consistently trades CR away.
	dims := grid.D3(32, 32, 8)
	data := sdrbench.GenCESM(dims, 11)
	crDefault := ratioOf(t, core.NewDefault(), data, dims, 1e-4)
	crSpeed := ratioOf(t, core.NewSpeed(), data, dims, 1e-4)
	if crSpeed >= crDefault {
		t.Errorf("speed CR %.1f should trail default %.1f", crSpeed, crDefault)
	}
}

func TestPFPLBeatsFixedLengthAtLooseBound(t *testing.T) {
	// Table 3 at 1e-2 on Nyx: PFPL ahead of cuSZp2 — its recursive zero
	// elimination collapses the exact-zero runs the lognormal voids
	// quantize to.
	dims := grid.D3(32, 32, 32)
	data := sdrbench.GenNYX(dims, 12)
	crP := ratioOf(t, pfpl.Compressor{}, data, dims, 1e-2)
	crC := ratioOf(t, cuszp2.Compressor{}, data, dims, 1e-2)
	if crP <= crC {
		t.Errorf("PFPL CR %.1f should beat cuSZp2 %.1f at loose bounds", crP, crC)
	}
}

func TestRateDistortionShape(t *testing.T) {
	// Figure 4 shape: at a fixed tight bound, the high-quality group
	// (sz3, default, quality, pfpl) reaches higher PSNR per bit than the
	// throughput group (speed, fz-gpu, cuszp2). Check a weaker invariant
	// robust to synthetic data: sz3's bitrate is the lowest while PSNR
	// stays at least comparable (within 3 dB of the best).
	dims := grid.D3(64, 64, 16)
	data := sdrbench.GenCESM(dims, 13)
	type point struct {
		name    string
		bitrate float64
		psnr    float64
	}
	var pts []point
	for _, c := range all() {
		blob, err := c.Compress(tp, data, dims, preprocess.RelBound(1e-4))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.Decompress(tp, blob)
		if err != nil {
			t.Fatal(err)
		}
		q, err := metrics.Evaluate(tp, device.Host, data, got)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, point{c.Name(), metrics.Bitrate(dims.N(), len(blob)), q.PSNR})
	}
	minRate, maxPSNR := pts[0], pts[0]
	for _, pt := range pts[1:] {
		if pt.bitrate < minRate.bitrate {
			minRate = pt
		}
		if pt.psnr > maxPSNR.psnr {
			maxPSNR = pt
		}
	}
	if minRate.name != "sz3" {
		t.Errorf("lowest bitrate is %s (%.2f b/v), paper shape says sz3", minRate.name, minRate.bitrate)
	}
	for _, pt := range pts {
		if pt.name == "sz3" && pt.psnr < maxPSNR.psnr-3 {
			t.Errorf("sz3 PSNR %.1f more than 3 dB behind best %.1f", pt.psnr, maxPSNR.psnr)
		}
	}
}

// TestBitshuffleBaselineBytesPinned pins the two baselines built on the
// bitshuffle kernels to the bytes the bit-at-a-time kernels produced (CRCs
// taken at the last commit that had them), on a HURR field whose size leaves
// a partial FZ-GPU tile and a partial PFPL chunk.
func TestBitshuffleBaselineBytesPinned(t *testing.T) {
	dims := grid.D3(50, 41, 13)
	data := sdrbench.GenHURR(dims, 7)
	for _, tc := range []struct {
		c    core.Compressor
		size int
		crc  uint32
	}{
		{fzgpu.Compressor{}, 13448, 0xf5307780},
		{pfpl.Compressor{}, 21378, 0x3e27848c},
	} {
		blob, err := tc.c.Compress(tp, data, dims, preprocess.RelBound(1e-3))
		if err != nil {
			t.Fatalf("%s: %v", tc.c.Name(), err)
		}
		if got := crc32.ChecksumIEEE(blob); len(blob) != tc.size || got != tc.crc {
			t.Errorf("%s: %d bytes, CRC %#08x; pinned %d bytes, CRC %#08x", tc.c.Name(), len(blob), got, tc.size, tc.crc)
		}
	}
}
