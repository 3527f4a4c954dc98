package core

import (
	"fmt"

	"fzmod/internal/device"
	"fzmod/internal/encoder/huffman"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/histogram"
	"fzmod/internal/predictor/lorenzo"
	"fzmod/internal/stf"
)

// This file holds the fine-grained FZMod-Default task graphs of §3.3.1:
// where the generic lowering in exec.go treats each module stage as one
// task, these graphs split the stages into their intra-pipeline branches
// (histogram ∥ outlier serialization on the write path, Huffman decode ∥
// outlier population on the read path) to exhibit the paper's branch-level
// concurrency. They run on the same engine as everything else.

// DecompressSTF decompresses an FZMod-Default (lorenzo+huffman) container
// through the fine-grained task graph, reproducing the paper's §3.3.1
// example: one task populates outlier data at the accelerator while the
// host decodes the Huffman stream — the two stages share no data
// dependency until reconstruction combines them. Secondary-encoded
// containers insert a secondary-decode task ahead of the branches.
func DecompressSTF(p *device.Platform, blob []byte) ([]float32, grid.Dims, *ExecReport, error) {
	c, err := fzio.Unmarshal(blob)
	if err != nil {
		return nil, grid.Dims{}, nil, err
	}
	ctx := stf.NewCtx(p)
	if c.Has(segSec) {
		// The inner container's geometry is only known once the secondary
		// layer is decoded, so the task runs and the build synchronizes on
		// it (Barrier) before declaring the dependent branches.
		var inner *fzio.Container
		secTok := stf.NewToken(ctx, "inner-container")
		ctx.Task("secondary-decode").On(device.Host).Writes(secTok.D()).
			Do(func(ti *stf.TaskInstance) error {
				dec, err := unwrapSecondary(p, c)
				if err != nil {
					return err
				}
				inner = dec
				return nil
			})
		ctx.Barrier()
		if inner == nil {
			err := ctx.Finalize()
			ctx.Release()
			return nil, grid.Dims{}, nil, err
		}
		c = inner
	}
	pr, enc, err := containerModules(c)
	if err != nil {
		return nil, grid.Dims{}, nil, err
	}
	_, isLorenzo := pr.(LorenzoPredictor)
	_, isHuffman := enc.(HuffmanEncoder)
	if !isLorenzo || !isHuffman {
		return nil, grid.Dims{}, nil, fmt.Errorf("core: STF decompression supports lorenzo+huffman containers, got %s+%s", pr.Name(), enc.Name())
	}
	payload, err := c.Segment(segCodes)
	if err != nil {
		return nil, grid.Dims{}, nil, err
	}
	// STF-written containers carry the explicit outlier index stream; for
	// plain containers the indices are derived from the escape codes in
	// the join task instead (the index branch then only decodes values).
	var outIdxRaw []byte
	hasIdx := c.Has(predPrefix + "outidx")
	if hasIdx {
		outIdxRaw, err = c.Segment(predPrefix + "outidx")
		if err != nil {
			return nil, grid.Dims{}, nil, err
		}
	}
	outValRaw, err := c.Segment(predPrefix + "outval")
	if err != nil {
		return nil, grid.Dims{}, nil, err
	}

	dims := c.Header.Dims
	n := dims.N()
	radius := int(c.Header.Extra)
	eb := c.Header.EB
	nOut := len(outValRaw) / 4

	codesBlob := stf.NewData(ctx, "codes-blob", payload)
	idxBlob := stf.NewData(ctx, "outidx-blob", outIdxRaw)
	valBlob := stf.NewData(ctx, "outval-blob", outValRaw)
	codes := stf.NewScratch[uint16](ctx, "codes", n)
	outIdx := stf.NewScratch[uint32](ctx, "outidx", nOut)
	outVal := stf.NewScratch[int32](ctx, "outval", nOut)
	result := stf.NewScratch[float32](ctx, "result", n)

	// Branch 1: Huffman decode on the host.
	ctx.Task("huffman-decode").Reads(codesBlob.D()).Writes(codes.D()).On(device.Host).
		Do(func(ti *stf.TaskInstance) error {
			decoded, err := huffman.Decompress(p, device.Host, codesBlob.Acc(ti))
			if err != nil {
				return err
			}
			if len(decoded) != n {
				return fmt.Errorf("core: %d decoded codes for %d values", len(decoded), n)
			}
			copy(codes.Acc(ti), decoded)
			return nil
		})

	// Branch 2: populate outlier data at the accelerator, concurrently.
	ctx.Task("outlier-populate").Reads(idxBlob.D(), valBlob.D()).Writes(outIdx.D(), outVal.D()).
		On(device.Accel).Do(func(ti *stf.TaskInstance) error {
		ib, vb := idxBlob.Acc(ti), valBlob.Acc(ti)
		oi, ov := outIdx.Acc(ti), outVal.Acc(ti)
		ti.Launch(nOut, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				if hasIdx {
					oi[j] = uint32(ib[4*j]) | uint32(ib[4*j+1])<<8 | uint32(ib[4*j+2])<<16 | uint32(ib[4*j+3])<<24
				}
				ov[j] = int32(uint32(vb[4*j]) | uint32(vb[4*j+1])<<8 | uint32(vb[4*j+2])<<16 | uint32(vb[4*j+3])<<24)
			}
		})
		return nil
	})

	// Join: inverse Lorenzo reconstruction consumes both branches.
	ctx.Task("reconstruct").Reads(codes.D(), outIdx.D(), outVal.D()).Writes(result.D()).
		On(device.Accel).Do(func(ti *stf.TaskInstance) error {
		idx := outIdx.Acc(ti)
		cds := codes.Acc(ti)
		if !hasIdx {
			idx = idx[:0]
			for i, cv := range cds {
				if cv == 0 {
					idx = append(idx, uint32(i))
				}
			}
			if len(idx) != nOut {
				return fmt.Errorf("core: %d escapes, %d outlier values", len(idx), nOut)
			}
		}
		q := &lorenzo.Quantized{
			Codes:  cds,
			OutIdx: idx,
			OutVal: outVal.Acc(ti),
			Radius: radius,
		}
		dec, err := lorenzo.Decode(p, ti.Place(), q, dims, eb)
		if err != nil {
			return err
		}
		copy(result.Acc(ti), dec)
		return nil
	})

	if err := ctx.Finalize(); err != nil {
		ctx.Release()
		return nil, grid.Dims{}, nil, err
	}
	report := execReport(ctx)
	vals := result.Detach()
	ctx.Release()
	return vals, dims, report, nil
}

// stfBlockPlan collects the dynamically-sized outputs of one block's
// compression task sub-graph; the task bodies fill it in and marshal reads
// it after Finalize.
type stfBlockPlan struct {
	quant                    *lorenzo.Quantized
	hist                     []uint32
	payload                  []byte
	outIdxBytes, outValBytes []byte
}

// addDefaultCompressTasks declares the FZMod-Default compression task graph
// for one block of a field: prediction at the accelerator, then histogram
// (accelerator) and outlier serialization (host) proceed concurrently
// before host Huffman coding.
func addDefaultCompressTasks(ctx *stf.Ctx, p *device.Platform, data []float32, dims grid.Dims, absEB float64) *stfBlockPlan {
	n := dims.N()
	plan := &stfBlockPlan{}

	input := stf.NewData(ctx, "input", data)
	codes := stf.NewScratch[uint16](ctx, "codes", n)
	// Outlier count is dynamic; tokens carry the dependency while the
	// payloads travel through captured variables (the same pattern CUDASTF
	// uses for dynamically-sized outputs via oversized logical buffers).
	outTok := stf.NewToken(ctx, "outliers")
	histTok := stf.NewToken(ctx, "hist")
	payloadTok := stf.NewToken(ctx, "payload")

	ctx.Task("predict").Reads(input.D()).Writes(codes.D(), outTok.D()).On(device.Accel).
		Do(func(ti *stf.TaskInstance) error {
			q, err := lorenzo.Encode(p, ti.Place(), input.Acc(ti), dims, absEB, 0)
			if err != nil {
				return err
			}
			plan.quant = q
			copy(codes.Acc(ti), q.Codes)
			return nil
		})

	ctx.Task("histogram").Reads(codes.D()).Writes(histTok.D()).On(device.Accel).
		Do(func(ti *stf.TaskInstance) error {
			h, err := histogramOf(p, ti.Place(), codes.Acc(ti), plan.quant.Radius)
			if err != nil {
				return err
			}
			plan.hist = h
			return nil
		})

	ctx.Task("outlier-serialize").Reads(outTok.D()).Writes(payloadTok.D()).On(device.Host).
		Do(func(ti *stf.TaskInstance) error {
			plan.outIdxBytes = device.U32Bytes(plan.quant.OutIdx)
			vals := make([]uint32, len(plan.quant.OutVal))
			for i, v := range plan.quant.OutVal {
				vals[i] = uint32(v)
			}
			plan.outValBytes = device.U32Bytes(vals)
			return nil
		})

	ctx.Task("huffman-encode").Reads(codes.D(), histTok.D()).ReadsWrites(payloadTok.D()).On(device.Host).
		Do(func(ti *stf.TaskInstance) error {
			pl, err := huffman.Compress(p, device.Host, codes.Acc(ti), plan.hist)
			if err != nil {
				return err
			}
			plan.payload = pl
			return nil
		})

	return plan
}

// marshal serializes one block's results into a monolithic container —
// the layout every FZMod-Default container has, plus the explicit outlier
// index side channel; call after the context has finalized.
func (plan *stfBlockPlan) marshal(dims grid.Dims, absEB float64) ([]byte, error) {
	inner, err := NewDefault().buildInner(dims, absEB, 0, &Prediction{
		Radius: plan.quant.Radius,
		Extras: map[string][]byte{"outidx": plan.outIdxBytes, "outval": plan.outValBytes},
	}, plan.payload)
	if err != nil {
		return nil, err
	}
	return inner.Marshal()
}

// CompressSTF compresses with the FZMod-Default stages expressed as a task
// graph. The output container is byte-compatible with Pipeline.Compress
// followed by the standard Decompress.
func CompressSTF(p *device.Platform, data []float32, dims grid.Dims, absEB float64) ([]byte, *ExecReport, error) {
	if dims.N() != len(data) {
		return nil, nil, fmt.Errorf("core: dims %v do not match %d values", dims, len(data))
	}
	ctx := stf.NewCtx(p)
	plan := addDefaultCompressTasks(ctx, p, data, dims, absEB)
	report, err := finish(ctx)
	if err != nil {
		return nil, report, err
	}
	blob, err := plan.marshal(dims, absEB)
	if err != nil {
		return nil, report, err
	}
	return blob, report, nil
}

func histogramOf(p *device.Platform, place device.Place, codes []uint16, radius int) ([]uint32, error) {
	return histogram.Standard(p, place, codes, 2*radius)
}
