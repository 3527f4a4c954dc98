package core

import (
	"encoding/binary"
	"fmt"

	"fzmod/internal/device"
	"fzmod/internal/grid"
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

// Predict implements Predictor.
func (lp LorenzoPredictor) Predict(p *device.Platform, place device.Place, data []float32, dims grid.Dims, eb float64, codes []uint16) (*Prediction, error) {
	q, err := lorenzo.EncodeInto(p, place, data, dims, eb, lp.Radius, codes)
	if err != nil {
		return nil, err
	}
	outVal := make([]byte, 4*len(q.OutVal))
	for i, v := range q.OutVal {
		binary.LittleEndian.PutUint32(outVal[4*i:], uint32(v))
	}
	// The outlier index stream is redundant on the wire: code 0 marks
	// outlier positions, and the compaction emits values in ascending
	// index order, so the decoder can rebuild indices from the codes.
	return &Prediction{
		Codes:  q.Codes,
		Radius: q.Radius,
		Extras: map[string][]byte{
			"outval": outVal,
		},
	}, nil
}

// Reconstruct implements Predictor.
func (LorenzoPredictor) Reconstruct(p *device.Platform, place device.Place, pred *Prediction, dims grid.Dims, eb float64, dst []float32) error {
	raw := pred.Extras["outval"]
	if len(raw)%4 != 0 {
		return fmt.Errorf("core: lorenzo outlier segment of %d bytes is not whole int32 values", len(raw))
	}
	slab := p.ScratchPool().GetI32(len(raw)/4, false)
	defer p.ScratchPool().PutI32(slab)
	outVal := slab.Data
	for i := range outVal {
		outVal[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	// Outlier positions come from the escape codes alone, which the decoder
	// reads in the same pass; a pred.outidx segment that older writers
	// emitted is redundant and ignored.
	q := &lorenzo.Quantized{Codes: pred.Codes, OutVal: outVal, Radius: pred.Radius}
	return lorenzo.DecodeInto(p, place, q, dims, eb, dst)
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
func (sp SplinePredictor) Predict(p *device.Platform, place device.Place, data []float32, dims grid.Dims, eb float64, codes []uint16) (*Prediction, error) {
	q, err := spline.EncodeInto(p, place, data, dims, eb, sp.Config, codes)
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
func (sp SplinePredictor) Reconstruct(p *device.Platform, place device.Place, pred *Prediction, dims grid.Dims, eb float64, dst []float32) error {
	// Counts are compared as uint64 against the bytes left, so a hostile
	// uvarint cannot wrap a slice bound negative.
	meta := pred.Extras["meta"]
	maxLevel, k := binary.Uvarint(meta)
	if k <= 0 {
		return fmt.Errorf("core: spline meta segment corrupt")
	}
	if maxLevel > spline.MaxLevelLimit {
		return fmt.Errorf("core: spline max level %d exceeds %d", maxLevel, spline.MaxLevelLimit)
	}
	rest := meta[k:]
	nChoices, k2 := binary.Uvarint(rest)
	if k2 <= 0 || nChoices > uint64(len(rest)-k2) {
		return fmt.Errorf("core: spline choices corrupt")
	}
	choices := rest[k2 : k2+int(nChoices)]
	rest = rest[k2+int(nChoices):]
	nOrders, k3 := binary.Uvarint(rest)
	if k3 <= 0 || nOrders > uint64(len(rest)-k3) {
		return fmt.Errorf("core: spline orders corrupt")
	}
	orders := rest[k3 : k3+int(nOrders)]
	// Outlier positions come from the escape codes; spline.DecodeInto
	// checks their count against the values.
	q := &spline.Quantized{
		Codes:    pred.Codes,
		Anchors:  device.BytesF32(pred.Extras["anchors"]),
		OutVal:   device.BytesF32(pred.Extras["outval"]),
		Choices:  choices,
		Orders:   orders,
		Radius:   pred.Radius,
		MaxLevel: int(maxLevel),
	}
	_, err := spline.DecodeInto(p, place, q, dims, eb, dst)
	return err
}
