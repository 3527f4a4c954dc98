package core

import (
	"fmt"

	"fzmod/internal/device"
	"fzmod/internal/predictor/spline"
)

// The three pipelines the paper highlights and evaluates (§3.3).

// NewDefault builds FZMod-Default: the hybrid design — highly parallel
// Lorenzo predictor+quantizer at the accelerator, GPU-style histogram, and
// CPU Huffman coding. Balances throughput, ratio and quality.
func NewDefault() *Pipeline {
	return &Pipeline{
		PipelineName: "fzmod-default",
		Pred:         LorenzoPredictor{},
		Enc:          HuffmanEncoder{Hist: HistStandard},
		PredPlace:    device.Accel,
		EncPlace:     device.Host,
	}
}

// NewSpeed builds FZMod-Speed: same Lorenzo prediction, but the slow
// Huffman stage is swapped for the FZ-GPU bitshuffle+dictionary encoder,
// trading compression ratio for throughput.
func NewSpeed() *Pipeline {
	return &Pipeline{
		PipelineName: "fzmod-speed",
		Pred:         LorenzoPredictor{},
		Enc:          FZGEncoder{},
		PredPlace:    device.Accel,
		EncPlace:     device.Accel,
	}
}

// NewQuality builds FZMod-Quality: the Lorenzo predictor is replaced by
// the G-Interp interpolation predictor for higher prediction accuracy, and
// Huffman (with the top-k histogram, which suits the spiky code
// distribution interpolation produces) keeps the ratio high.
func NewQuality() *Pipeline {
	return &Pipeline{
		PipelineName: "fzmod-quality",
		Pred:         SplinePredictor{Config: spline.Config{Mode: spline.Cubic, TuneOrder: true}},
		Enc:          HuffmanEncoder{Hist: HistTopK},
		PredPlace:    device.Accel,
		EncPlace:     device.Host,
	}
}

// Presets returns the three evaluated pipelines in paper order.
func Presets() []*Pipeline {
	return []*Pipeline{NewDefault(), NewQuality(), NewSpeed()}
}

// PresetByName resolves the short preset names the CLI and the daemon
// take: default, speed, quality.
func PresetByName(name string) (*Pipeline, error) {
	switch name {
	case "default":
		return NewDefault(), nil
	case "speed":
		return NewSpeed(), nil
	case "quality":
		return NewQuality(), nil
	}
	return nil, fmt.Errorf("unknown preset %q (want default, speed, quality)", name)
}
