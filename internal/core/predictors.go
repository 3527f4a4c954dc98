package core

import (
	"encoding/binary"
	"fmt"

	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/kernels/dispatch"
	"fzmod/internal/predictor/lorenzo"
	"fzmod/internal/predictor/spline"
)

// LorenzoPredictor adapts the cuSZ Lorenzo module (package lorenzo) to the
// framework's Predictor contract. It is the prediction stage of
// FZMod-Default and FZMod-Speed.
type LorenzoPredictor struct {
	// Radius overrides the quantization radius; 0 uses the module default.
	Radius int
}

// Name implements Predictor.
func (LorenzoPredictor) Name() string { return "lorenzo" }

// PredictorInto is the optional extension of Predictor for modules that
// can quantize into a caller-provided codes buffer: the executor draws the
// buffer from the platform pool and recycles it once the encoder has
// consumed the codes, so per-chunk compression allocates O(chunk) scratch
// instead of O(field) across a run. The buffer may hold garbage; the
// predictor clears it. The returned Prediction aliases codes.
type PredictorInto interface {
	Predictor
	PredictInto(p *device.Platform, place device.Place, data []float32, dims grid.Dims, eb float64, codes []uint16) (*Prediction, error)
}

// Predict implements Predictor.
func (lp LorenzoPredictor) Predict(p *device.Platform, place device.Place, data []float32, dims grid.Dims, eb float64) (*Prediction, error) {
	return lp.PredictInto(p, place, data, dims, eb, nil)
}

// PredictInto implements PredictorInto.
func (lp LorenzoPredictor) PredictInto(p *device.Platform, place device.Place, data []float32, dims grid.Dims, eb float64, codes []uint16) (*Prediction, error) {
	q, err := lorenzo.EncodeInto(p, place, data, dims, eb, lp.Radius, codes)
	if err != nil {
		return nil, err
	}
	outVal := make([]uint32, len(q.OutVal))
	for i, v := range q.OutVal {
		outVal[i] = uint32(v)
	}
	// The outlier index stream is redundant on the wire: code 0 marks
	// outlier positions, and the compaction emits values in ascending
	// index order, so the decoder can rebuild indices from the codes.
	return &Prediction{
		Codes:  q.Codes,
		Radius: q.Radius,
		Extras: map[string][]byte{
			"outval": device.U32Bytes(outVal),
		},
	}, nil
}

// ReconstructorInto is the optional extension of Predictor for modules
// that can reconstruct into a caller-provided output buffer: chunked
// decompression scatters each chunk's field straight into the assembled
// result instead of copying through a per-chunk allocation.
type ReconstructorInto interface {
	Predictor
	ReconstructInto(p *device.Platform, place device.Place, pred *Prediction, dims grid.Dims, eb float64, dst []float32) error
}

// Reconstruct implements Predictor.
func (lp LorenzoPredictor) Reconstruct(p *device.Platform, place device.Place, pred *Prediction, dims grid.Dims, eb float64) ([]float32, error) {
	out := make([]float32, dims.N())
	if err := lp.ReconstructInto(p, place, pred, dims, eb, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReconstructInto implements ReconstructorInto.
func (LorenzoPredictor) ReconstructInto(p *device.Platform, place device.Place, pred *Prediction, dims grid.Dims, eb float64, dst []float32) error {
	outValU := device.BytesU32(pred.Extras["outval"])
	outVal := make([]int32, len(outValU))
	for i, v := range outValU {
		outVal[i] = int32(v)
	}
	// Outlier positions come from the escape codes alone; a pred.outidx
	// segment that older writers emitted is redundant and ignored.
	q := &lorenzo.Quantized{
		Codes:  pred.Codes,
		OutIdx: outlierIndices(pred.Codes, len(outVal)),
		OutVal: outVal,
		Radius: pred.Radius,
	}
	if len(q.OutIdx) != len(outVal) {
		return fmt.Errorf("core: %d outlier escapes in codes, %d values", len(q.OutIdx), len(outVal))
	}
	return lorenzo.DecodeInto(p, place, q, dims, eb, dst)
}

// outlierIndices rebuilds the ascending outlier index stream from the
// escape codes (code 0). cap bounds the scan so a corrupt stream cannot
// allocate unboundedly. Escapes are rare, so the scan hops zero to zero
// with the dispatched NextZero kernel (one vector compare covers sixteen
// codes on AVX2; the pure-Go fallback keeps the branch-free borrow-trick
// word scan) instead of testing every code.
func outlierIndices(codes []uint16, cap int) []uint32 {
	out := make([]uint32, 0, cap)
	base := 0
	for {
		k := dispatch.NextZero(codes[base:])
		if k < 0 {
			return out
		}
		out = append(out, uint32(base+k))
		base += k + 1
	}
}

// SplinePredictor adapts the G-Interp interpolation module (package
// spline) — the prediction stage of FZMod-Quality, and with Mode=Auto the
// SZ3 baseline's predictor.
type SplinePredictor struct {
	Config spline.Config
}

// Name implements Predictor.
func (sp SplinePredictor) Name() string {
	if sp.Config.Mode == spline.Auto {
		return "spline-auto"
	}
	return "spline"
}

// Predict implements Predictor.
func (sp SplinePredictor) Predict(p *device.Platform, place device.Place, data []float32, dims grid.Dims, eb float64) (*Prediction, error) {
	q, err := spline.Encode(p, place, data, dims, eb, sp.Config)
	if err != nil {
		return nil, err
	}
	meta := binary.AppendUvarint(nil, uint64(q.MaxLevel))
	meta = binary.AppendUvarint(meta, uint64(len(q.Choices)))
	meta = append(meta, q.Choices...)
	meta = binary.AppendUvarint(meta, uint64(len(q.Orders)))
	meta = append(meta, q.Orders...)
	return &Prediction{
		Codes:  q.Codes,
		Radius: q.Radius,
		Extras: map[string][]byte{
			"anchors": device.F32Bytes(q.Anchors),
			"outval":  device.F32Bytes(q.OutVal),
			"meta":    meta,
		},
	}, nil
}

// Reconstruct implements Predictor.
func (sp SplinePredictor) Reconstruct(p *device.Platform, place device.Place, pred *Prediction, dims grid.Dims, eb float64) ([]float32, error) {
	meta := pred.Extras["meta"]
	maxLevel, k := binary.Uvarint(meta)
	if k <= 0 {
		return nil, fmt.Errorf("core: spline meta segment corrupt")
	}
	pos := k
	nChoices, k2 := binary.Uvarint(meta[pos:])
	if k2 <= 0 || pos+k2+int(nChoices) > len(meta) {
		return nil, fmt.Errorf("core: spline choices corrupt")
	}
	pos += k2
	choices := meta[pos : pos+int(nChoices)]
	pos += int(nChoices)
	nOrders, k3 := binary.Uvarint(meta[pos:])
	if k3 <= 0 || pos+k3+int(nOrders) > len(meta) {
		return nil, fmt.Errorf("core: spline orders corrupt")
	}
	pos += k3
	orders := meta[pos : pos+int(nOrders)]
	outVal := device.BytesF32(pred.Extras["outval"])
	q := &spline.Quantized{
		Codes:    pred.Codes,
		Anchors:  device.BytesF32(pred.Extras["anchors"]),
		OutIdx:   outlierIndices(pred.Codes, len(outVal)),
		OutVal:   outVal,
		Choices:  choices,
		Orders:   orders,
		Radius:   pred.Radius,
		MaxLevel: int(maxLevel),
	}
	if len(q.OutIdx) != len(outVal) {
		return nil, fmt.Errorf("core: %d outlier escapes in codes, %d values", len(q.OutIdx), len(outVal))
	}
	return spline.Decode(p, place, q, dims, eb)
}
