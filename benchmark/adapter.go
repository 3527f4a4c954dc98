package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"fzmod"
	"fzmod/internal/core"
	"fzmod/internal/serve"
)

// This file is the only place the benchmark calls the product's compress,
// decompress, stream, region and report entry points and builds its daemon.
// When the facade collapses to one function per operation, only these call
// sites change. (The staged replay in replay.go calls the layer packages —
// lorenzo, huffman, fzio, … — directly; those are not entry points.)

func presetPipeline(name string) (*fzmod.Pipeline, error) {
	switch name {
	case "default":
		return fzmod.Default(), nil
	case "speed":
		return fzmod.Speed(), nil
	case "quality":
		return fzmod.QualityPipeline(), nil
	}
	return nil, fmt.Errorf("unknown preset %q", name)
}

// compressChunked is the chunked write path at a fixed worker budget.
func compressChunked(p *fzmod.Platform, pl *fzmod.Pipeline, data []float32, dims fzmod.Dims, eb fzmod.ErrorBound, chunkElems, workers int) ([]byte, *fzmod.ExecReport, error) {
	return pl.CompressChunkedReport(p, data, dims, eb, fzmod.ChunkOpts{ChunkElems: chunkElems, Workers: workers})
}

// compressSmall is the default entry point on an input below the
// auto-chunking threshold: the one-chunk (monolithic) graph, one worker.
func compressSmall(p *fzmod.Platform, pl *fzmod.Pipeline, data []float32, dims fzmod.Dims, eb fzmod.ErrorBound) ([]byte, error) {
	return pl.Compress(p.WithWorkers(1), data, dims, eb)
}

func decompress(p *fzmod.Platform, blob []byte, workers int) ([]float32, fzmod.Dims, *fzmod.ExecReport, error) {
	return core.DecompressReportWithOpts(p, blob, core.DecompressOpts{Workers: workers})
}

// openRegion opens blob for proof-checked random-access reads; cache may be nil.
func openRegion(p *fzmod.Platform, blob []byte, cache *fzmod.SlabCache, workers int) (*fzmod.Region, error) {
	return fzmod.OpenRegion(p, fzmod.NewBytesFetcher(blob), fzmod.RegionOpts{Workers: workers, Cache: cache, VerifyProofs: true})
}

func readRegion(r *fzmod.Region, sel fzmod.RegionSel) ([]float32, *fzmod.ExecReport, error) {
	return r.ReadReport(sel)
}

func streamCompress(p *fzmod.Platform, pl *fzmod.Pipeline, r io.Reader, dims fzmod.Dims, absEB float64, w io.Writer, chunkElems, workers int) (int64, error) {
	return fzmod.CompressStream(p, pl, r, dims, fzmod.Abs(absEB), w, fzmod.StreamOpts{ChunkElems: chunkElems, Workers: workers, Window: 2})
}

func streamDecompress(p *fzmod.Platform, r io.Reader, w io.Writer, workers int) (fzmod.Dims, error) {
	return fzmod.DecompressStream(p, r, w, fzmod.StreamOpts{Workers: workers, Window: 2})
}

// daemon is an fzmodd instance with the default Config over its own platform.
type daemon struct {
	srv *serve.Server
	p   *fzmod.Platform
}

func newDaemon() *daemon {
	p := fzmod.NewPlatform()
	return &daemon{srv: serve.New(p, serve.Config{}), p: p}
}

func (d *daemon) handler() http.Handler { return d.srv.Handler() }

func (d *daemon) admission() (peak int, shed int64) {
	return d.srv.Admission().Peak(), d.srv.Admission().Shed()
}

func (d *daemon) stats() fzmod.Snapshot { return fzmod.Stats(d.p) }

func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	d.p.Close()
	return err
}
