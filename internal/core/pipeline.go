package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
)

// Pipeline composes modules into a compressor, the framework's
// central object (§3.3). PredPlace and EncPlace assign each stage to an
// execution place, expressing hybrid designs like FZMod-Default's
// GPU-predictor + CPU-Huffman split. Every entry point lowers to an STF
// task graph executed by the engine in exec.go; the methods here only
// validate inputs, resolve the error bound, and build graphs.
type Pipeline struct {
	PipelineName string
	Pred         Predictor
	Enc          CodesEncoder
	Sec          Secondary // nil disables the secondary stage
	PredPlace    device.Place
	EncPlace     device.Place
}

// Name implements Compressor.
func (pl *Pipeline) Name() string { return pl.PipelineName }

// WithSecondary returns a copy of the pipeline with the secondary encoder
// attached, as in "zstd can be attempted" (§3.2).
func (pl *Pipeline) WithSecondary(s Secondary) *Pipeline {
	cp := *pl
	cp.Sec = s
	cp.PipelineName = pl.PipelineName + "+" + s.Name()
	return &cp
}

// segment names used by the container layout.
const (
	segCodes   = "codes"
	segModules = "modules"
	segSec     = "sec"
	segZ       = "z"
	predPrefix = "pred."
)

// Compress implements Compressor: CompressChunkedReportCtx with the zero
// Opts, so the automatic chunking rule picks the container flavor.
func (pl *Pipeline) Compress(p *device.Platform, data []float32, dims grid.Dims, eb preprocess.ErrorBound) ([]byte, error) {
	blob, _, err := pl.CompressChunkedReportCtx(context.Background(), p, data, dims, eb, Opts{})
	return blob, err
}

// buildInner assembles one block's stages into the monolithic fzio
// container structure — header, module names, encoded code stream, and the
// predictor's side channels in sorted order — without serializing it:
// segments reference the stage outputs, so callers can size the container
// exactly (MarshaledSize) and serialize it straight into its final
// destination (MarshalInto), which is what lets the chunked executor
// scatter-write chunks into the assembled container with no staging blob.
func (pl *Pipeline) buildInner(dims grid.Dims, absEB, relEB float64, pred *Prediction, payload []byte) (*fzio.Container, error) {
	inner := fzio.New(fzio.Header{
		Pipeline: pl.PipelineName,
		Dims:     dims,
		EB:       absEB,
		RelEB:    relEB,
		Extra:    uint64(pred.Radius),
	})
	if err := inner.Add(segModules, []byte(pl.Pred.Name()+"\x00"+pl.Enc.Name())); err != nil {
		return nil, err
	}
	if err := inner.Add(segCodes, payload); err != nil {
		return nil, err
	}
	for _, k := range sortedKeys(pred.Extras) {
		if err := inner.Add(predPrefix+k, pred.Extras[k]); err != nil {
			return nil, err
		}
	}
	return inner, nil
}

// wrapSecondary applies the secondary encoder over a serialized inner
// container (header h) and wraps the result in the outer container layout.
func (pl *Pipeline) wrapSecondary(p *device.Platform, place device.Place, blob []byte, h fzio.Header) ([]byte, error) {
	z, err := pl.Sec.Compress(p, place, blob)
	if err != nil {
		return nil, fmt.Errorf("core: %s secondary: %w", pl.Sec.Name(), err)
	}
	outer := fzio.New(fzio.Header{Pipeline: h.Pipeline, Dims: h.Dims, EB: h.EB, RelEB: h.RelEB})
	if err := outer.Add(segSec, []byte(pl.Sec.Name())); err != nil {
		return nil, err
	}
	if err := outer.Add(segZ, z); err != nil {
		return nil, err
	}
	return outer.Marshal()
}

// Decompress implements Compressor. It ignores the receiver's module
// configuration: containers are self-describing, so the module table
// decodes them.
func (pl *Pipeline) Decompress(p *device.Platform, blob []byte) ([]float32, grid.Dims, error) {
	vals, dims, _, err := DecompressReportWithOptsCtx(context.Background(), p, blob, DecompressOpts{})
	return vals, dims, err
}

// DecompressReportWithOpts is DecompressReportWithOptsCtx without a
// context.
func DecompressReportWithOpts(p *device.Platform, blob []byte, opts DecompressOpts) ([]float32, grid.Dims, *ExecReport, error) {
	return DecompressReportWithOptsCtx(context.Background(), p, blob, opts)
}

// unwrapSecondary decodes a container's secondary layer and parses the
// inner container it wraps.
func unwrapSecondary(p *device.Platform, c *fzio.Container) (*fzio.Container, error) {
	secName, _ := c.Segment(segSec)
	sec, err := lookup("secondary", secondaries, string(secName))
	if err != nil {
		return nil, err
	}
	z, err := c.Segment(segZ)
	if err != nil {
		return nil, err
	}
	inner, err := sec.Decompress(p, device.Host, z)
	if err != nil {
		return nil, fmt.Errorf("core: %s secondary: %w", sec.Name(), err)
	}
	return fzio.Unmarshal(inner)
}

// containerModules resolves the predictor and encoder a container records.
func containerModules(c *fzio.Container) (Predictor, CodesEncoder, error) {
	modBytes, err := c.Segment(segModules)
	if err != nil {
		return nil, nil, err
	}
	names := strings.SplitN(string(modBytes), "\x00", 2)
	if len(names) != 2 {
		return nil, nil, fmt.Errorf("core: malformed modules segment")
	}
	pr, err := lookup("predictor", predictors, names[0])
	if err != nil {
		return nil, nil, err
	}
	enc, err := lookup("encoder", encoders, names[1])
	if err != nil {
		return nil, nil, err
	}
	return pr, enc, nil
}

// containerPrediction rebuilds the prediction interchange record from a
// container's decoded codes plus its "pred." side channels.
func containerPrediction(c *fzio.Container, codes []uint16) *Prediction {
	pred := &Prediction{
		Codes:  codes,
		Radius: int(c.Header.Extra),
		Extras: map[string][]byte{},
	}
	for _, name := range c.Names() {
		if strings.HasPrefix(name, predPrefix) {
			seg, _ := c.Segment(name)
			pred.Extras[strings.TrimPrefix(name, predPrefix)] = seg
		}
	}
	return pred
}

// Describe returns a one-line human-readable pipeline summary.
func (pl *Pipeline) Describe() string {
	sec := "none"
	if pl.Sec != nil {
		sec = pl.Sec.Name()
	}
	return fmt.Sprintf("%s: predict=%s@%v encode=%s@%v secondary=%s",
		pl.PipelineName, pl.Pred.Name(), pl.PredPlace, pl.Enc.Name(), pl.EncPlace, sec)
}

func sortedKeys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
