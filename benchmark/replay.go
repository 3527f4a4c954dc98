package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"fzmod"
	"fzmod/internal/core"
	"fzmod/internal/device"
	"fzmod/internal/encoder/fzg"
	"fzmod/internal/encoder/huffman"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/histogram"
	"fzmod/internal/kernels/dispatch"
	"fzmod/internal/predictor/lorenzo"
	"fzmod/internal/predictor/spline"
	"fzmod/internal/preprocess"
)

// The staged replay re-does a product operation one layer call at a time, so
// each call can carry a span: the product runs these same calls inside STF
// task bodies where the benchmark cannot see them. The glue between the calls
// (side-channel packing, outlier index rebuild, window copy) mirrors
// internal/core and is left outside the spans, so it lands in core's self
// time along with the scheduler. The replay is only trusted because it is
// checked: every chunk's encoded code payload must equal the product
// container's, and every reconstruction the product's output.

// Container segment names the replay shares with internal/core.
const (
	segCodes   = "codes"
	segModules = "modules"
	predPrefix = "pred."
)

// sink keeps results the replay computes only to time them.
var sink uint32

type replayer struct {
	e     *fieldEnv
	exec  *device.Platform // the one-worker view the product's tasks run on
	tr    *tracer
	slabs []grid.Slab

	productCodes  [][]byte // code segment of each chunk of the product container
	overheadBytes int      // container bytes that are not segment payload

	// Facts of the most recent replayed ops (they repeat exactly).
	outliers, codeBytes  int
	fetchReads, fetchLen int64
	chunksDecoded        int

	cf *fzio.CountingFetcher
	ix *fzio.ContainerIndex
}

func newReplayer(e *fieldEnv, tr *tracer) (*replayer, error) {
	r := &replayer{e: e, exec: e.p.WithWorkers(fieldWorkers), tr: tr,
		slabs: grid.SplitSlabs(e.dims, e.chunkElems/e.dims.PlaneElems())}
	cc, err := fzio.UnmarshalChunked(e.blob)
	if err != nil {
		return nil, err
	}
	if cc.NumChunks() != len(r.slabs) {
		return nil, fmt.Errorf("replay: product container has %d chunks, replay plans %d", cc.NumChunks(), len(r.slabs))
	}
	r.overheadBytes = len(e.blob)
	for i := range cc.Chunks {
		cb, err := cc.Chunk(i)
		if err != nil {
			return nil, err
		}
		c, err := fzio.Unmarshal(cb)
		if err != nil {
			return nil, err
		}
		for _, name := range c.Names() {
			seg, _ := c.Segment(name) // name came from Names
			r.overheadBytes -= len(seg)
			if name == segCodes {
				r.productCodes = append(r.productCodes, seg)
			}
		}
	}
	if len(r.productCodes) != len(r.slabs) {
		return nil, errors.New("replay: product chunk without a code segment")
	}
	return r, nil
}

// prediction is what the predict stage hands the encoder and the container.
type prediction struct {
	codes    []uint16
	radius   int
	extras   map[string][]byte
	outliers int
	release  func()
}

func (r *replayer) predict(chunk []float32, dims grid.Dims, absEB float64) (*prediction, error) {
	switch pr := r.e.pl.Pred.(type) {
	case core.LorenzoPredictor:
		slab := r.exec.ScratchPool().GetU16(dims.N(), false)
		done := r.tr.span("lorenzo", "encode")
		q, err := lorenzo.EncodeInto(r.exec, r.e.pl.PredPlace, chunk, dims, absEB, pr.Radius, slab.Data)
		done()
		if err != nil {
			r.exec.ScratchPool().PutU16(slab)
			return nil, err
		}
		outVal := make([]uint32, len(q.OutVal))
		for i, v := range q.OutVal {
			outVal[i] = uint32(v)
		}
		return &prediction{codes: q.Codes, radius: q.Radius, outliers: len(q.OutVal),
			extras:  map[string][]byte{"outval": device.U32Bytes(outVal)},
			release: func() { r.exec.ScratchPool().PutU16(slab) }}, nil
	case core.SplinePredictor:
		done := r.tr.span("spline", "encode")
		q, err := spline.Encode(r.exec, r.e.pl.PredPlace, chunk, dims, absEB, pr.Config)
		done()
		if err != nil {
			return nil, err
		}
		meta := binary.AppendUvarint(nil, uint64(q.MaxLevel))
		meta = binary.AppendUvarint(meta, uint64(len(q.Choices)))
		meta = append(meta, q.Choices...)
		meta = binary.AppendUvarint(meta, uint64(len(q.Orders)))
		meta = append(meta, q.Orders...)
		return &prediction{codes: q.Codes, radius: q.Radius, outliers: len(q.OutVal),
			extras:  map[string][]byte{"anchors": device.F32Bytes(q.Anchors), "outval": device.F32Bytes(q.OutVal), "meta": meta},
			release: func() {}}, nil
	}
	return nil, fmt.Errorf("replay: no staged predictor for %s", r.e.pl.Pred.Name())
}

func (r *replayer) encode(codes []uint16, radius int) ([]byte, error) {
	pl := r.e.pl
	switch enc := pl.Enc.(type) {
	case core.HuffmanEncoder:
		var hist []uint32
		var err error
		if enc.Hist == core.HistTopK {
			done := r.tr.span("histogram", "topk")
			hist, err = histogram.TopK(r.exec, device.Accel, codes, 2*radius, enc.TopK)
			done()
		} else {
			done := r.tr.span("histogram", "standard")
			hist, err = histogram.Standard(r.exec, device.Accel, codes, 2*radius)
			done()
		}
		if err != nil {
			return nil, err
		}
		done := r.tr.span("huffman", "build")
		codec, err := huffman.Build(hist)
		done()
		if err != nil {
			return nil, err
		}
		done = r.tr.span("huffman", "encode")
		body, err := codec.Encode(r.exec, pl.EncPlace, codes)
		done()
		if err != nil {
			return nil, err
		}
		var payload []byte
		// huffman.Compress lays the stream behind the table without this copy.
		r.tr.untimed(func() { payload = append(codec.SerializeTable(), body...) })
		return payload, nil
	case core.FZGEncoder:
		done := r.tr.span("fzg", "encode")
		payload := fzg.Encode(r.exec, pl.EncPlace, codes, radius)
		done()
		return payload, nil
	}
	return nil, fmt.Errorf("replay: no staged encoder for %s", pl.Enc.Name())
}

// compress replays one chunked compress and checks the code payloads.
func (r *replayer) compress() error {
	e, tr := r.e, r.tr
	tr.beginOp("compress")
	defer tr.endOp()
	done := tr.span("preprocess", "resolve")
	absEB, _, err := preprocess.Resolve(r.exec, e.pl.PredPlace, e.data, e.eb)
	done()
	if err != nil {
		return err
	}
	inners := make([]*fzio.Container, len(r.slabs))
	sizes := make([]int, len(r.slabs))
	planes := make([]int, len(r.slabs))
	r.outliers, r.codeBytes = 0, 0
	for i, sl := range r.slabs {
		pred, err := r.predict(e.data[sl.Lo:sl.Lo+sl.Dims.N()], sl.Dims, absEB)
		if err != nil {
			return err
		}
		payload, err := r.encode(pred.codes, pred.radius)
		pred.release()
		if err != nil {
			return err
		}
		same := true
		tr.untimed(func() { same = bytes.Equal(payload, r.productCodes[i]) })
		if !same {
			return fmt.Errorf("replay: chunk %d code payload differs from the product's", i)
		}
		r.outliers += pred.outliers
		r.codeBytes += len(payload)
		inner := fzio.New(fzio.Header{Pipeline: e.pl.PipelineName, Dims: sl.Dims, EB: absEB, Extra: uint64(pred.radius)})
		if err := inner.Add(segModules, []byte(e.pl.Pred.Name()+"\x00"+e.pl.Enc.Name())); err != nil {
			return err
		}
		if err := inner.Add(segCodes, payload); err != nil {
			return err
		}
		names := make([]string, 0, len(pred.extras))
		for k := range pred.extras {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if err := inner.Add(predPrefix+k, pred.extras[k]); err != nil {
				return err
			}
		}
		inners[i], sizes[i], planes[i] = inner, inner.MarshaledSize(), sl.Planes
	}
	hdr := fzio.ChunkedHeader{Pipeline: e.pl.PipelineName, Dims: e.dims, EB: absEB, RelEB: e.eb.Value, Planes: r.slabs[0].Planes}
	done = tr.span("fzio", "assemble")
	asm, err := fzio.NewChunkedAssembly(hdr, sizes, planes)
	done()
	if err != nil {
		return err
	}
	for i := range inners {
		dst := asm.ChunkSlice(i)
		done = tr.span("fzio", "marshal")
		_, err := inners[i].MarshalInto(dst)
		done()
		if err != nil {
			return err
		}
		// SealChunk is these two calls; timing them apart splits its cost.
		done = tr.span("fzio", "crc32")
		sink += crc32.ChecksumIEEE(dst)
		done()
		done = tr.span("fzio", "leafhash")
		leaf := fzio.LeafHash(dst)
		done()
		sink += uint32(leaf[0])
		tr.untimed(func() { asm.SealChunk(i) })
	}
	done = tr.span("fzio", "assemble")
	sink += uint32(len(asm.Bytes()))
	done()
	return nil
}

// decodeChunk decodes one chunk container into dst, mirroring core's decode
// and reconstruct task bodies.
func (r *replayer) decodeChunk(c *fzio.Container, dims grid.Dims, dst []float32) error {
	payload, err := c.Segment(segCodes)
	if err != nil {
		return err
	}
	var codes []uint16
	switch r.e.pl.Enc.(type) {
	case core.HuffmanEncoder:
		done := r.tr.span("huffman", "decode")
		codes, err = huffman.Decompress(r.exec, device.Accel, payload)
		done()
	case core.FZGEncoder:
		done := r.tr.span("fzg", "decode")
		codes, err = fzg.Decode(r.exec, device.Accel, payload)
		done()
	}
	if err != nil {
		return err
	}
	if len(codes) != dims.N() {
		return fmt.Errorf("replay: %d codes for dims %v", len(codes), dims)
	}
	seg := func(name string) []byte {
		b, _ := c.Segment(predPrefix + name) // absent → nil → caught by the length checks below
		return b
	}
	eb, radius := c.Header.EB, int(c.Header.Extra)
	switch r.e.pl.Pred.(type) {
	case core.LorenzoPredictor:
		outU := device.BytesU32(seg("outval"))
		outVal := make([]int32, len(outU))
		for i, v := range outU {
			outVal[i] = int32(v)
		}
		q := &lorenzo.Quantized{Codes: codes, OutIdx: outlierIndices(codes, len(outVal)), OutVal: outVal, Radius: radius}
		if len(q.OutIdx) != len(outVal) {
			return fmt.Errorf("replay: %d outlier escapes, %d values", len(q.OutIdx), len(outVal))
		}
		done := r.tr.span("lorenzo", "decode")
		err = lorenzo.DecodeInto(r.exec, device.Accel, q, dims, eb, dst)
		done()
		return err
	case core.SplinePredictor:
		meta := seg("meta")
		maxLevel, k := binary.Uvarint(meta)
		if k <= 0 {
			return errors.New("replay: spline meta corrupt")
		}
		nChoices, k2 := binary.Uvarint(meta[k:])
		if k2 <= 0 || k+k2+int(nChoices) > len(meta) {
			return errors.New("replay: spline choices corrupt")
		}
		pos := k + k2
		choices := meta[pos : pos+int(nChoices)]
		pos += int(nChoices)
		nOrders, k3 := binary.Uvarint(meta[pos:])
		if k3 <= 0 || pos+k3+int(nOrders) > len(meta) {
			return errors.New("replay: spline orders corrupt")
		}
		orders := meta[pos+k3 : pos+k3+int(nOrders)]
		outVal := device.BytesF32(seg("outval"))
		q := &spline.Quantized{Codes: codes, Anchors: device.BytesF32(seg("anchors")), OutIdx: outlierIndices(codes, len(outVal)),
			OutVal: outVal, Choices: choices, Orders: orders, Radius: radius, MaxLevel: int(maxLevel)}
		if len(q.OutIdx) != len(outVal) {
			return fmt.Errorf("replay: %d outlier escapes, %d values", len(q.OutIdx), len(outVal))
		}
		done := r.tr.span("spline", "decode")
		vals, err := spline.Decode(r.exec, device.Accel, q, dims, eb)
		done()
		if err != nil {
			return err
		}
		copy(dst, vals)
		return nil
	}
	return fmt.Errorf("replay: no staged reconstruction for %s", r.e.pl.Pred.Name())
}

// outlierIndices rebuilds the ascending outlier index stream from the escape
// codes, as core does for containers without an index side channel.
func outlierIndices(codes []uint16, n int) []uint32 {
	out := make([]uint32, 0, n)
	for base := 0; ; {
		k := dispatch.NextZero(codes[base:])
		if k < 0 {
			return out
		}
		out = append(out, uint32(base+k))
		base += k + 1
	}
}

// decompress replays one chunked decompress of the product container and
// checks the reconstruction against the product's.
func (r *replayer) decompress() error {
	e, tr := r.e, r.tr
	tr.beginOp("decompress")
	out, err := func() ([]float32, error) {
		defer tr.endOp()
		done := tr.span("fzio", "unmarshal")
		cc, err := fzio.UnmarshalChunked(e.blob)
		done()
		if err != nil {
			return nil, err
		}
		out := make([]float32, e.dims.N())
		lo := 0
		for i, ref := range cc.Chunks {
			done = tr.span("fzio", "crc32")
			cb, err := cc.Chunk(i)
			done()
			if err != nil {
				return nil, err
			}
			done = tr.span("fzio", "unmarshal")
			c, err := fzio.Unmarshal(cb)
			done()
			if err != nil {
				return nil, err
			}
			want := e.dims.WithSlowExtent(ref.Planes)
			if err := r.decodeChunk(c, want, out[lo:lo+want.N()]); err != nil {
				return nil, err
			}
			lo += want.N()
		}
		return out, nil
	}()
	if err != nil {
		return err
	}
	if !bytes.Equal(f32bytes(out), f32bytes(e.ref)) {
		return errors.New("replay: reconstruction differs from the product's")
	}
	return nil
}

// regionOpen replays OpenRegion: the index fetch.
func (r *replayer) regionOpen() error {
	r.tr.beginOp("region_open")
	defer r.tr.endOp()
	r.cf = fzio.NewCountingFetcher(fzio.NewBytesFetcher(r.e.blob))
	done := r.tr.span("fzio", "fetch_index")
	var err error
	r.ix, err = fzio.FetchIndex(r.cf)
	done()
	return err
}

// region replays one cold proof-checked region read and checks the window.
func (r *replayer) region(sel fzmod.RegionSel) error {
	e, tr := r.e, r.tr
	r.cf.Reset()
	tr.beginOp("region")
	out, err := func() ([]float32, error) {
		defer tr.endOp()
		out := make([]float32, sel.Dims().N())
		s0, s1 := sel.X0, sel.X1
		switch e.dims.Rank() {
		case 3:
			s0, s1 = sel.Z0, sel.Z1
		case 2:
			s0, s1 = sel.Y0, sel.Y1
		}
		r.chunksDecoded = 0
		lo := 0
		for i, ref := range r.ix.Chunks {
			if lo < s1 && lo+ref.Planes > s0 {
				done := tr.span("fzio", "fetch")
				payload, err := r.cf.ReadRange(int64(ref.Offset), ref.Length)
				done()
				if err != nil {
					return nil, err
				}
				done = tr.span("fzio", "crc32")
				err = r.ix.VerifyChunk(i, payload)
				done()
				if err != nil {
					return nil, err
				}
				done = tr.span("fzio", "verify_proof")
				err = r.ix.VerifyProof(i, payload)
				done()
				if err != nil {
					return nil, err
				}
				done = tr.span("fzio", "unmarshal")
				c, err := fzio.Unmarshal(payload)
				done()
				if err != nil {
					return nil, err
				}
				want := e.dims.WithSlowExtent(ref.Planes)
				slab := make([]float32, want.N())
				if err := r.decodeChunk(c, want, slab); err != nil {
					return nil, err
				}
				copyWindow(out, sel, e.dims, slab, lo, ref.Planes)
				r.chunksDecoded++
			}
			lo += ref.Planes
		}
		return out, nil
	}()
	if err != nil {
		return err
	}
	r.fetchReads, r.fetchLen = r.cf.Reads(), r.cf.BytesRead()
	return e.checkWindow(sel, out)
}
