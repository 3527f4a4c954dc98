// Package core is the FZModules framework itself: the module interfaces
// each pipeline stage plugs into, the pipeline composer that chains
// preprocessing → prediction → primary lossless encoding → optional
// secondary encoding (§3.3), the serialization of every stage into the
// fzio container, and the preset pipelines the paper evaluates
// (FZMod-Default, FZMod-Speed, FZMod-Quality).
//
// A pipeline is data, not code: it is assembled from named modules, and
// the module names are recorded in the compressed container so any
// FZModules build with the same module table can decompress the stream.
// Extending the framework the way the paper describes is adding a module
// to that table.
package core

import (
	"fmt"

	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/predictor/spline"
	"fzmod/internal/preprocess"
)

// Prediction is the interchange format between the prediction stage and
// the lossless encoding stage: a dense stream of bounded quantization
// codes plus predictor-specific side data (outliers, anchors, interpolant
// choices) as named binary segments.
type Prediction struct {
	Codes  []uint16
	Radius int
	// Extras holds predictor-specific serialized side channels; they are
	// stored as container segments prefixed "pred.".
	Extras map[string][]byte
}

// Predictor is the prediction+quantization stage contract. Both stages
// write into a caller-owned buffer that may hold any bytes on entry (the
// executor's come from the scratch pool): every element or an error.
type Predictor interface {
	// Name is the module-table key recorded in compressed containers.
	Name() string
	// Predict quantizes data within absolute bound eb at place into codes
	// (dims.N() elements; nil allocates). The Prediction aliases codes.
	Predict(p *device.Platform, place device.Place, data []float32, dims grid.Dims, eb float64, codes []uint16) (*Prediction, error)
	// Reconstruct inverts Predict into dst (dims.N() values).
	Reconstruct(p *device.Platform, place device.Place, pred *Prediction, dims grid.Dims, eb float64, dst []float32) error
}

// CodesEncoder is the primary lossless stage contract: it compresses the
// quantization-code stream.
type CodesEncoder interface {
	Name() string
	EncodeCodes(p *device.Platform, place device.Place, codes []uint16, radius int) ([]byte, error)
	// DecodeCodes decodes blob into dst, whose length must be the stream's
	// code count: any other count is refused before decoding, and on
	// success every element is written.
	DecodeCodes(p *device.Platform, place device.Place, blob []byte, dst []uint16) error
}

// Secondary is the optional second lossless pass (the zstd slot).
type Secondary interface {
	Name() string
	Compress(p *device.Platform, place device.Place, data []byte) ([]byte, error)
	Decompress(p *device.Platform, place device.Place, blob []byte) ([]byte, error)
}

// Compressor is the uniform external contract pipelines and baseline
// compressors share; the benchmark harness drives everything through it.
type Compressor interface {
	Name() string
	Compress(p *device.Platform, data []float32, dims grid.Dims, eb preprocess.ErrorBound) ([]byte, error)
	Decompress(p *device.Platform, blob []byte) ([]float32, grid.Dims, error)
}

// The module table maps the names containers record to implementations,
// which is what makes a container self-describing. It is fixed at build
// time: adding a module is one line here, and the golden corpus
// (testdata/golden) then covers every composition it enables.
var (
	predictors = []Predictor{
		LorenzoPredictor{},
		SplinePredictor{Config: spline.Config{Mode: spline.Cubic, TuneOrder: true}},
		SplinePredictor{Config: spline.Config{Mode: spline.Auto, TuneOrder: true}},
	}
	encoders = []CodesEncoder{
		HuffmanEncoder{Hist: HistStandard},
		HuffmanEncoder{Hist: HistTopK},
		FZGEncoder{},
	}
	secondaries = []Secondary{LZSecondary{}}
)

// lookup resolves a name a container records against one column of the
// module table.
func lookup[M interface{ Name() string }](kind string, table []M, name string) (M, error) {
	for _, m := range table {
		if m.Name() == name {
			return m, nil
		}
	}
	known := make([]string, len(table))
	for i, m := range table {
		known[i] = m.Name()
	}
	var zero M
	return zero, fmt.Errorf("core: unknown %s %q (known: %v)", kind, name, known)
}
