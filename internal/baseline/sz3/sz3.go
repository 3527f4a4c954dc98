// Package sz3 reproduces the SZ3 baseline (§2.1/2.3): the modular CPU
// compressor whose high-quality prediction gives it "the highest CR for
// all datasets and error bounds" in Table 3. The reproduction composes the
// same stages SZ3 does: a multi-level interpolation predictor with
// per-level auto-tuned interpolants and dimension orders, a wide quantizer
// (large radius keeps almost every residual in-band), Huffman entropy
// coding, and a mandatory LZ secondary pass. All stages run at the host
// place: SZ3 is the CPU reference point, an order of magnitude slower than
// the GPU designs but ahead on rate–distortion.
package sz3

import (
	"fmt"

	"fzmod/internal/core"
	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/predictor/spline"
	"fzmod/internal/preprocess"
)

// Radius is SZ3's quantizer radius: 16× wider than the GPU pipelines, so
// rough regions stay in-band instead of escaping to outliers.
const Radius = 8192

// Compressor implements core.Compressor via an internal core.Pipeline with
// SZ3's module choices.
type Compressor struct {
	pl *core.Pipeline
}

// New builds the SZ3 baseline.
func New() *Compressor {
	pl := &core.Pipeline{
		PipelineName: "sz3",
		Pred: core.SplinePredictor{Config: spline.Config{
			Mode:      spline.Auto,
			TuneOrder: true,
			Radius:    Radius,
			MaxLevel:  5,
		}},
		Enc:       core.HuffmanEncoder{Hist: core.HistStandard},
		Sec:       core.LZSecondary{},
		PredPlace: device.Host,
		EncPlace:  device.Host,
	}
	return &Compressor{pl: pl}
}

// Name implements core.Compressor.
func (*Compressor) Name() string { return "sz3" }

// Compress implements core.Compressor.
func (c *Compressor) Compress(p *device.Platform, data []float32, dims grid.Dims, eb preprocess.ErrorBound) ([]byte, error) {
	blob, err := c.pl.Compress(p, data, dims, eb)
	if err != nil {
		return nil, fmt.Errorf("sz3: %w", err)
	}
	return blob, nil
}

// Decompress implements core.Compressor.
func (c *Compressor) Decompress(p *device.Platform, blob []byte) ([]float32, grid.Dims, error) {
	return c.pl.Decompress(p, blob)
}
