package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"fzmod/internal/core"
	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/sdrbench"
)

var tp = device.NewTestPlatform()

func TestDimsScales(t *testing.T) {
	for _, ds := range sdrbench.All() {
		small, full := Dims(ds, Small), Dims(ds, Full)
		if small.N() >= full.N() {
			t.Errorf("%v: small %v not smaller than full %v", ds, small, full)
		}
		if small.Rank() != full.Rank() {
			t.Errorf("%v: scaling changed rank", ds)
		}
	}
}

func TestDataCached(t *testing.T) {
	a, dims := Data(sdrbench.HURR, Small)
	b, _ := Data(sdrbench.HURR, Small)
	if &a[0] != &b[0] {
		t.Error("Data should return the cached slice")
	}
	if dims != Dims(sdrbench.HURR, Small) {
		t.Error("dims mismatch")
	}
}

func TestCompressorSets(t *testing.T) {
	gpu := GPUCompressors()
	all := Compressors()
	if len(all) != len(gpu)+1 {
		t.Fatalf("Compressors should append sz3: %d vs %d", len(all), len(gpu))
	}
	if all[len(all)-1].Name() != "sz3" {
		t.Error("sz3 must be last (paper excludes it from throughput figures)")
	}
	for _, c := range gpu {
		if c.Name() == "sz3" {
			t.Error("sz3 in GPU set")
		}
	}
}

func TestRunOneProducesConsistentResult(t *testing.T) {
	data, dims := Data(sdrbench.HURR, Small)
	r := RunOne(tp, core.NewDefault(), data, dims, 1e-3)
	if r.CompErr != nil {
		t.Fatal(r.CompErr)
	}
	if r.CR <= 1 || r.Bitrate <= 0 || r.PSNR <= 0 || r.CompGBs <= 0 || r.DecompGBs <= 0 {
		t.Errorf("implausible result: %+v", r)
	}
	// bitrate and CR are two views of the same size: CR = 32/bitrate.
	if got := 32 / r.Bitrate; got/r.CR < 0.99 || got/r.CR > 1.01 {
		t.Errorf("CR %.3f inconsistent with bitrate %.3f", r.CR, r.Bitrate)
	}
}

func TestRunOneReportsRejection(t *testing.T) {
	// FZ-GPU rejects 1e-6 on CESM (16-bit residual overflow); RunOne must
	// carry the error rather than fake numbers.
	data, dims := Data(sdrbench.CESM, Small)
	var found bool
	for _, c := range GPUCompressors() {
		if c.Name() == "fz-gpu" {
			r := RunOne(tp, c, data, dims, 1e-6)
			if r.CompErr == nil {
				t.Skip("fz-gpu accepted 1e-6 on this field")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("fz-gpu not in GPU set")
	}
}

func TestTable3Writer(t *testing.T) {
	var buf bytes.Buffer
	results := Table3(&buf, tp, Small)
	out := buf.String()
	for _, want := range []string{"Table 3", "CESM-ATM", "NYX", "sz3", "fzmod-default"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// 4 datasets × 3 bounds × 7 compressors.
	if len(results) != 4*3*7 {
		t.Errorf("result count = %d, want 84", len(results))
	}
}

func TestSpeedupWriterCalibration(t *testing.T) {
	var buf bytes.Buffer
	h := device.NewH100Platform()
	results := Speedup(&buf, h, Small)
	out := buf.String()
	if !strings.Contains(out, "calibration") {
		t.Error("speedup output must state the bandwidth calibration")
	}
	if len(results) != 4*3*6 {
		t.Errorf("result count = %d, want 72", len(results))
	}
}

// TestFig1Writer pins that Figure 1 measures each cell once: both printed
// tables must render the returned results, so a decompression cell that
// came from a second run (or a result set that misses a direction) fails.
func TestFig1Writer(t *testing.T) {
	var buf bytes.Buffer
	results := Fig1(&buf, tp, Small)
	// 4 datasets × 3 bounds × 6 compressors.
	if len(results) != 4*3*6 {
		t.Fatalf("result count = %d, want 72", len(results))
	}
	_, rest, ok := strings.Cut(buf.String(), "[compression]\n")
	comp, decomp, ok2 := strings.Cut(rest, "[decompression]\n")
	if !ok || !ok2 {
		t.Fatalf("Fig1 output must contain both directions:\n%s", buf.String())
	}
	for _, tc := range []struct {
		name, table string
		gbs         func(Result) float64
	}{
		{"compression", comp, func(r Result) float64 { return r.CompGBs }},
		{"decompression", decomp, func(r Result) float64 { return r.DecompGBs }},
	} {
		var cells []string
		for _, line := range strings.Split(strings.TrimSpace(tc.table), "\n")[1:] { // skip the header
			cells = append(cells, strings.Fields(line)[2:]...) // skip dataset, eb
		}
		if len(cells) != len(results) {
			t.Fatalf("%s table has %d cells, want %d", tc.name, len(cells), len(results))
		}
		for i, r := range results {
			want := fmt.Sprintf("%.3f", tc.gbs(r))
			if r.CompErr != nil {
				want = "–"
			}
			if cells[i] != want {
				t.Errorf("%s cell %d (%s %s @%g) = %s, want the returned result's %s",
					tc.name, i, r.Dataset, r.Compressor, r.EB, cells[i], want)
			}
		}
	}
}

func TestAblationsRun(t *testing.T) {
	var buf bytes.Buffer
	if err := STFAblation(&buf, tp, Small); err != nil {
		t.Errorf("STFAblation: %v", err)
	}
	if !strings.Contains(buf.String(), "digraph stf") {
		t.Error("STF ablation should dump the DAG")
	}
	buf.Reset()
	if err := HistAblation(&buf, tp, Small); err != nil {
		t.Errorf("HistAblation: %v", err)
	}
	if !strings.Contains(buf.String(), "spikiness") {
		t.Error("hist ablation should report spikiness")
	}
	buf.Reset()
	if err := SecondaryAblation(&buf, tp, Small); err != nil {
		t.Errorf("SecondaryAblation: %v", err)
	}
	buf.Reset()
	if err := FusionAblation(&buf, tp, Small); err != nil {
		t.Errorf("FusionAblation: %v", err)
	}
	if !strings.Contains(buf.String(), "fz-gpu") || !strings.Contains(buf.String(), "fzmod-speed") {
		t.Error("fusion ablation should compare both encoders")
	}
	buf.Reset()
	if err := PlaceAblation(&buf, tp, Small); err != nil {
		t.Errorf("PlaceAblation: %v", err)
	}
	if !strings.Contains(buf.String(), "huffman@host") || !strings.Contains(buf.String(), "huffman@accel") {
		t.Error("place ablation should compare both places")
	}
}

func TestDimsHelperSmallFloor(t *testing.T) {
	// The quartering must never produce degenerate dims.
	for _, ds := range sdrbench.All() {
		d := Dims(ds, Small)
		if !d.Valid() {
			t.Errorf("%v: invalid small dims %v", ds, d)
		}
	}
	_ = grid.Dims{}
}
