package bench

import (
	"fmt"
	"io"

	"fzmod/internal/core"
	"fzmod/internal/device"
	"fzmod/internal/encoder/huffman"
	"fzmod/internal/histogram"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

// STFAblation demonstrates the branch-level concurrency of §3.3.1 on the
// product task graph: one FZMod-Default CESM field compressed as two chunks
// decodes as two sub-graphs that share no token. It decompresses the
// container at Workers=1 (one worker per lane) and at the platform's width,
// requires the two fields to be bit-identical, and reports both times and
// whether any tasks overlapped. The paper avoids performance claims for
// the experimental CUDASTF path; this ablation documents the overlap the
// same way.
func STFAblation(w io.Writer, p *device.Platform, sc Scale) error {
	data, dims := Data(sdrbench.CESM, sc)
	blob, _, err := core.NewDefault().CompressChunkedReport(p, data, dims, preprocess.RelBound(1e-4),
		core.ChunkOpts{ChunkElems: dims.N() / 2})
	if err != nil {
		return err
	}
	serialOpts := core.DecompressOpts{Workers: 1}
	serial, _, _, err := core.DecompressReportWithOpts(p, blob, serialOpts)
	if err != nil {
		return err
	}
	wide, _, report, err := core.DecompressReportWithOpts(p, blob, core.DecompressOpts{})
	if err != nil {
		return err
	}
	for i := range serial {
		if serial[i] != wide[i] {
			return fmt.Errorf("stf ablation: results diverge at %d", i)
		}
	}
	serialSec := medianSec(func() { core.DecompressReportWithOpts(p, blob, serialOpts) })
	wideSec := medianSec(func() { core.DecompressReportWithOpts(p, blob, core.DecompressOpts{}) })
	fmt.Fprintf(w, "STF ablation (FZMod-Default two-chunk decompression, %s, %v):\n", sdrbench.CESM, dims)
	fmt.Fprintf(w, "  workers=%-3d %8.1f ms\n", 1, serialSec*1e3)
	fmt.Fprintf(w, "  workers=%-3d %8.1f ms  (branches overlapped: %v, tasks: %d, critical path: %d)\n",
		p.Workers(device.Accel), wideSec*1e3, report.Overlapped(), report.Tasks, report.CriticalPath)
	fmt.Fprintf(w, "  DAG:\n%s", report.DOT)
	return nil
}

// HistAblation compares the standard and top-k histogram modules (§3.2) on
// both predictors' code streams: build time and the Huffman stream size
// each induces. The paper's guidance — top-k suits the spiky distributions
// high-quality prediction produces — is checked directly.
func HistAblation(w io.Writer, p *device.Platform, sc Scale) error {
	data, dims := Data(sdrbench.CESM, sc)
	absEB, _, err := preprocess.Resolve(p, device.Accel, data, preprocess.RelBound(1e-4))
	if err != nil {
		return err
	}
	preds := []struct {
		name string
		pr   core.Predictor
	}{
		{"lorenzo", core.LorenzoPredictor{}},
		{"spline", core.NewQuality().Pred},
	}
	fmt.Fprintf(w, "Histogram ablation (%s @1e-4): build time and induced Huffman size\n", sdrbench.CESM)
	for _, pd := range preds {
		pred, err := pd.pr.Predict(p, device.Accel, data, dims, absEB, nil)
		if err != nil {
			return err
		}
		bins := 2 * pred.Radius
		hStd, err := histogram.Standard(p, device.Accel, pred.Codes, bins)
		if err != nil {
			return err
		}
		hTop, err := histogram.TopK(p, device.Accel, pred.Codes, bins, 0)
		if err != nil {
			return err
		}
		stdSec := medianSec(func() { histogram.Standard(p, device.Accel, pred.Codes, bins) })
		topSec := medianSec(func() { histogram.TopK(p, device.Accel, pred.Codes, bins, 0) })
		szStd, err := huffSize(p, pred.Codes, hStd)
		if err != nil {
			return err
		}
		szTop, err := huffSize(p, pred.Codes, hTop)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-8s spikiness(top-32)=%.3f\n", pd.name, histogram.Spikiness(hStd, 32))
		fmt.Fprintf(w, "    standard: %6.2f ms → %8d bytes\n", stdSec*1e3, szStd)
		fmt.Fprintf(w, "    top-k:    %6.2f ms → %8d bytes (%+.2f%%)\n",
			topSec*1e3, szTop, 100*float64(szTop-szStd)/float64(szStd))
	}
	return nil
}

func huffSize(p *device.Platform, codes []uint16, hist []uint32) (int, error) {
	blob, err := huffman.Compress(p, device.Host, codes, hist)
	if err != nil {
		return 0, err
	}
	return len(blob), nil
}

// SecondaryAblation measures the effect of the zstd-slot LZ pass on each
// preset pipeline (§3.2: "a secondary lossless encoder can be attempted").
func SecondaryAblation(w io.Writer, p *device.Platform, sc Scale) error {
	data, dims := Data(sdrbench.CESM, sc)
	fmt.Fprintf(w, "Secondary-encoder ablation (%s @1e-4):\n", sdrbench.CESM)
	for _, pl := range core.Presets() {
		plain, err := pl.Compress(p, data, dims, preprocess.RelBound(1e-4))
		if err != nil {
			return err
		}
		withSec, err := pl.WithSecondary(core.LZSecondary{}).Compress(p, data, dims, preprocess.RelBound(1e-4))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-16s %8d B → %8d B (%+.2f%%)\n", pl.Name(),
			len(plain), len(withSec), 100*float64(len(withSec)-len(plain))/float64(len(plain)))
	}
	return nil
}

// PlaceAblation measures the Huffman stage at the host vs the accelerator
// place (DESIGN ablation 3). The paper keeps Huffman on the CPU; in this
// simulated runtime both places are goroutine pools, so the difference is
// pool width and launch accounting — the ablation documents that the
// framework lets a pipeline flip the assignment with one field.
func PlaceAblation(w io.Writer, p *device.Platform, sc Scale) error {
	data, dims := Data(sdrbench.CESM, sc)
	fmt.Fprintf(w, "Encoder-place ablation (FZMod-Default, %s @1e-4):\n", sdrbench.CESM)
	for _, place := range []device.Place{device.Host, device.Accel} {
		pl := core.NewDefault()
		pl.EncPlace = place
		blob, err := pl.Compress(p, data, dims, preprocess.RelBound(1e-4))
		if err != nil {
			return err
		}
		sec := medianSec(func() { pl.Compress(p, data, dims, preprocess.RelBound(1e-4)) })
		if _, _, err := pl.Decompress(p, blob); err != nil {
			return err
		}
		fmt.Fprintf(w, "  huffman@%-6v %8.1f ms  %8d B\n", place, sec*1e3, len(blob))
	}
	return nil
}

// FusionAblation quantifies the fused-vs-staged gap the paper observes
// between FZ-GPU and FZMod-Speed (same data-reduction techniques).
func FusionAblation(w io.Writer, p *device.Platform, sc Scale) error {
	data, dims := Data(sdrbench.NYX, sc)
	fmt.Fprintf(w, "Fusion ablation (%s @1e-4): staged FZMod-Speed vs fused FZ-GPU\n", sdrbench.NYX)
	for _, c := range GPUCompressors() {
		name := c.Name()
		if name != "fzmod-speed" && name != "fz-gpu" {
			continue
		}
		r := RunOne(p, c, data, dims, 1e-4)
		if r.CompErr != nil {
			return r.CompErr
		}
		fmt.Fprintf(w, "  %-12s comp %7.3f GB/s  decomp %7.3f GB/s  CR %6.1f\n",
			name, r.CompGBs, r.DecompGBs, r.CR)
	}
	return nil
}
