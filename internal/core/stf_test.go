package core

import (
	"strings"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/metrics"
	"fzmod/internal/preprocess"
)

func TestSTFDecompressMatchesStandard(t *testing.T) {
	data, dims := testField()
	eb := preprocess.RelBound(1e-4)
	blob, err := NewDefault().Compress(tp, data, dims, eb)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Decompress(tp, blob)
	if err != nil {
		t.Fatal(err)
	}
	got, gotDims, report, err := DecompressSTF(tp, blob)
	if err != nil {
		t.Fatal(err)
	}
	if gotDims != dims {
		t.Fatalf("dims = %v, want %v", gotDims, dims)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("STF and standard decompression diverge at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if report == nil || len(report.Trace) != 3 {
		t.Fatalf("expected 3-task trace, got %+v", report)
	}
	for _, want := range []string{"huffman-decode", "outlier-populate", "reconstruct"} {
		if !strings.Contains(report.DOT, want) {
			t.Errorf("DAG missing task %q:\n%s", want, report.DOT)
		}
	}
}

func TestSTFCompressInteroperates(t *testing.T) {
	data, dims := testField()
	absEB, _, err := preprocess.Resolve(tp, device.Accel, data, preprocess.RelBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	blob, report, err := CompressSTF(tp, data, dims, absEB)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Trace) != 4 {
		t.Errorf("expected 4-task compression trace, got %d", len(report.Trace))
	}
	// Standard decompression must read the STF container.
	got, _, err := Decompress(tp, blob)
	if err != nil {
		t.Fatal(err)
	}
	if i := metrics.VerifyBound(data, got, absEB); i != -1 {
		t.Fatalf("bound violated at %d", i)
	}
	// And the STF decompressor as well.
	got2, _, _, err := DecompressSTF(tp, blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != got2[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestSTFRejectsUnsupportedContainers(t *testing.T) {
	data, dims := testField()
	// Spline container: STF path only handles lorenzo+huffman.
	blob, err := NewQuality().Compress(tp, data, dims, preprocess.RelBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecompressSTF(tp, blob); err == nil {
		t.Error("spline container should be rejected by STF path")
	}
	if _, _, _, err := DecompressSTF(tp, []byte("junk")); err == nil {
		t.Error("garbage should be rejected")
	}
}

// TestSTFDecompressSecondary checks the secondary-decode task insertion:
// a +lz container decodes through the STF graph and matches the standard
// module-table path bit for bit.
func TestSTFDecompressSecondary(t *testing.T) {
	data, dims := testField()
	blob, err := NewDefault().WithSecondary(LZSecondary{}).Compress(tp, data, dims, preprocess.RelBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Decompress(tp, blob)
	if err != nil {
		t.Fatal(err)
	}
	got, gotDims, report, err := DecompressSTF(tp, blob)
	if err != nil {
		t.Fatal(err)
	}
	if gotDims != dims {
		t.Fatalf("dims = %v, want %v", gotDims, dims)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
	if len(report.Trace) != 4 {
		t.Errorf("trace has %d tasks, want 4 (secondary-decode + 3)", len(report.Trace))
	}
	if !strings.Contains(report.DOT, "secondary-decode") {
		t.Errorf("DAG missing secondary-decode task:\n%s", report.DOT)
	}
}

func TestSTFDimsMismatch(t *testing.T) {
	if _, _, err := CompressSTF(tp, make([]float32, 3), grid.D1(8), 1e-3); err == nil {
		t.Error("dims mismatch should fail")
	}
}
