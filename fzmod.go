// Package fzmod is the public API of the FZModules reproduction: a
// heterogeneous framework for assembling error-bounded lossy compression
// pipelines for scientific floating-point data, after Ruiter, Tian & Song,
// "FZModules: A Heterogeneous Computing Framework for Customizable
// Scientific Data Compression Pipelines" (SC Workshops '25).
//
// # Quick start
//
//	platform := fzmod.NewPlatform()
//	pipeline := fzmod.Default()
//	blob, err := pipeline.Compress(platform, data, fzmod.Dims3(512, 512, 512), fzmod.Rel(1e-4))
//	...
//	back, dims, report, err := fzmod.Decompress(ctx, platform, blob, fzmod.Opts{})
//
// Every call lowers to one sequential-task-flow (STF) graph executed by a
// single scheduler (§3.3.1): compression declares per-chunk
// predict → encode → serialize (→ secondary) sub-graphs joined by an
// assembly task, decompression the mirrored fetch → decode → reconstruct
// chains, and the scheduler runs the graph over bounded per-place stream
// pools with pooled scratch buffers. Inputs of at least AutoChunkElems
// elements (64 MiB of float32) are partitioned into independent slabs
// along the slowest dimension automatically; smaller fields lower to a
// one-chunk graph producing a monolithic container. Decompress accepts
// all three container flavors. To set the chunk size in elements (chunking
// below the automatic threshold included) or the worker budget, call
// CompressChunkedReportCtx; its zero Opts apply the same automatic rule,
// and the worker budget never changes the bytes:
//
//	blob, report, err := pipeline.CompressChunkedReportCtx(ctx, platform, data, dims,
//	    fzmod.Rel(1e-4), fzmod.Opts{ChunkElems: 1 << 21, Workers: 8})
//
// Fields larger than memory (or arriving over a socket or pipe) stream
// through the same engine: CompressStream consumes an io.Reader chunk by
// chunk into an append-mode streaming container, and DecompressStream
// mirrors it; each builds one task graph with at most Opts.Window chunks
// in flight, so resident memory is bounded by the window, not the field:
//
//	_, err := fzmod.CompressStream(platform, pipeline, file, dims, fzmod.Abs(absEB), out,
//	    fzmod.Opts{Window: 4})
//
// The relative bound is resolved against the whole field's value range
// before chunking, so chunked and monolithic compression enforce the
// identical error tolerance. Every operation returns, or can return, an
// ExecReport with the executed task trace, the dependency DAG in Graphviz
// dot syntax, and buffer-pool reuse statistics; every operation that takes
// a context stops its unstarted task bodies once the context is canceled
// and returns the context's error.
//
// # Random-access region reads
//
// Containers need not be decoded whole: OpenRegion parses the chunk index
// of an artifact behind any storage backend implementing ChunkFetcher — an
// in-memory blob (NewBytesFetcher), a local file (NewFileFetcher), or an
// HTTP object behind Range requests (NewHTTPFetcher) — and
// Region.ReadReportCtx serves an arbitrary subvolume by fetching and
// decoding only the slab chunks the selection intersects:
//
//	fetcher := fzmod.NewHTTPFetcher("https://data.example/field.fzmc", nil)
//	region, err := fzmod.OpenRegion(platform, fetcher, fzmod.Opts{})
//	...
//	vals, report, err := region.ReadReportCtx(ctx,
//	    fzmod.RegionSel{X0: 0, X1: 64, Y0: 0, Y1: 64, Z0: 128, Z1: 160})
//
// For repeated selections, keep the Region open: an optional SlabCache
// (Opts.Cache) keeps decoded slabs resident across reads — and across
// Regions, since entries are keyed by container content — so overlapping
// requests pay each chunk's fetch-and-decode cost once. The byte-level
// container layout the region planner indexes against is specified
// normatively in docs/FORMAT.md.
//
// Three preset pipelines reproduce the paper's §3.3 designs: Default
// (Lorenzo + histogram + CPU Huffman), Speed (Lorenzo + FZ-GPU
// bitshuffle/dictionary), and Quality (G-Interp spline interpolation +
// top-k histogram + Huffman). Custom pipelines are assembled from the
// module table; see the examples directory.
package fzmod

import (
	"context"
	"io"
	"net/http"

	"fzmod/internal/core"
	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/metrics"
	"fzmod/internal/preprocess"
)

// Re-exported core types. The facade keeps downstream imports to one
// package for the common path while power users can reach the internal
// modules through the same structures.
type (
	// Pipeline is a composed compressor (see core.Pipeline).
	Pipeline = core.Pipeline
	// Compressor is the uniform compress/decompress contract.
	Compressor = core.Compressor
	// Platform is the simulated heterogeneous execution platform.
	Platform = device.Platform
	// Dims describes field geometry (x fastest).
	Dims = grid.Dims
	// ErrorBound is a tolerance plus interpretation mode.
	ErrorBound = preprocess.ErrorBound
	// Quality bundles reconstruction-quality statistics.
	Quality = metrics.Quality
	// Opts is the unified options surface shared by every entry point:
	// Workers (total parallelism budget), ChunkElems (write-path chunk
	// granularity), Window (streaming chunks in flight) and Cache (decoded
	// slabs shared across region reads). Three historical aliases of it are
	// left — ChunkOpts, StreamOpts and RegionOpts — so one struct can
	// configure a whole request pipeline — the fzmodd daemon maps its
	// request parameters 1:1 onto this type. The zero value always selects
	// an operation's documented defaults.
	Opts = core.Opts
	// ChunkOpts configures the chunked task graph (see
	// Pipeline.CompressChunkedReportCtx); an alias of the unified Opts — the zero
	// value selects sane defaults.
	ChunkOpts = core.ChunkOpts
	// StreamOpts configures the streaming (out-of-core) entry points:
	// chunk granularity, chunks in flight, scheduler width. The zero value
	// selects sane defaults.
	StreamOpts = core.StreamOpts
	// ExecReport is the execution evidence of one task-graph run: trace,
	// DAG, critical path, buffer-pool reuse statistics and — for region
	// reads — the chunk and slab-cache accounting in its Region field.
	ExecReport = core.ExecReport
	// RegionSel selects the half-open subvolume [X0,X1)×[Y0,Y1)×[Z0,Z1) of
	// a field in its native x-fastest coordinates (see OpenRegion).
	RegionSel = core.RegionSel
	// RegionOpts configures region reads: the Workers parallelism budget
	// and an optional shared SlabCache. The zero value decodes with the
	// platform's full width and no cache.
	RegionOpts = core.RegionOpts
	// RegionStats summarizes one region read or Decompress: chunks
	// intersected, chunks decoded vs. served from cache, payload bytes
	// fetched and leaf hashes checked.
	RegionStats = core.RegionStats
	// Region is an open container positioned for random-access reads: the
	// chunk index is parsed once and selections are served with per-chunk
	// fetch → decode → reconstruct sub-graphs. Safe for concurrent reads.
	Region = core.Region
	// SlabCache is the size-bounded LRU of decoded slabs shared between
	// region reads; create with NewSlabCache.
	SlabCache = core.SlabCache
	// ChunkFetcher serves byte ranges of one container artifact — the
	// pluggable storage abstraction region reads are built on.
	// Implementations must be safe for concurrent ReadRange calls.
	ChunkFetcher = fzio.ChunkFetcher
	// Snapshot is a read-only, point-in-time copy of a platform's
	// counters — transfer and launch traffic, scratch-pool gets/hits/puts,
	// and the active SIMD kernel tier. Obtain one with Stats; it is plain
	// data, safe to export. Region slab-cache traffic is counted by the
	// SlabCache itself (SlabCache.Stats).
	Snapshot = device.Snapshot
	// PoolStats is the scratch-pool traffic snapshot carried in
	// Snapshot.Pool (gets, hits, puts; HitRate derives reuse).
	PoolStats = device.PoolStats
)

// Chunking policy of the default executor, re-exported from core.
const (
	// DefaultChunkElems is the default chunk granularity in elements.
	DefaultChunkElems = core.DefaultChunkElems
	// AutoChunkElems is the input size in elements from which a compress
	// with Opts.ChunkElems 0 cuts the field into DefaultChunkElems chunks.
	AutoChunkElems = core.AutoChunkElems
)

// NewPlatform returns the default platform, modeled on the paper's H100
// node (Table 1).
func NewPlatform() *Platform { return device.NewH100Platform() }

// NewV100Platform returns the paper's V100 node model (lower host link
// bandwidth; used for the Figure 3 speedup variant).
func NewV100Platform() *Platform { return device.NewV100Platform() }

// Default returns the FZMod-Default preset pipeline.
func Default() *Pipeline { return core.NewDefault() }

// Speed returns the FZMod-Speed preset pipeline.
func Speed() *Pipeline { return core.NewSpeed() }

// QualityPipeline returns the FZMod-Quality preset pipeline.
func QualityPipeline() *Pipeline { return core.NewQuality() }

// Presets returns the three evaluated pipelines in paper order.
func Presets() []*Pipeline { return core.Presets() }

// WithZstdSlot attaches the secondary lossless encoder (the paper's zstd
// slot, backed by the built-in LZ codec) to a pipeline.
func WithZstdSlot(pl *Pipeline) *Pipeline { return pl.WithSecondary(core.LZSecondary{}) }

// Dims1 describes a 1-D field.
func Dims1(n int) Dims { return grid.D1(n) }

// Dims2 describes a 2-D field (x fastest).
func Dims2(x, y int) Dims { return grid.D2(x, y) }

// Dims3 describes a 3-D field (x fastest).
func Dims3(x, y, z int) Dims { return grid.D3(x, y, z) }

// Rel builds a value-range-relative error bound (the paper's evaluation
// setting).
func Rel(v float64) ErrorBound { return preprocess.RelBound(v) }

// Abs builds an absolute error bound.
func Abs(v float64) ErrorBound { return preprocess.AbsBound(v) }

// CompressStream compresses a dims-shaped field of little-endian float32
// values read from r into a streaming container written to w, with at
// most opts.Window chunks in flight — the out-of-core path for fields
// larger than RAM, network sockets and shell pipes. The bound must be
// absolute (resolve a relative bound first); per-chunk output is
// bit-identical to the in-memory write on the same field. Returns the
// compressed bytes written. Equivalent to pl.CompressStreamCtx with
// context.Background().
func CompressStream(p *Platform, pl *Pipeline, r io.Reader, dims Dims, eb ErrorBound, w io.Writer, opts StreamOpts) (int64, error) {
	return pl.CompressStreamCtx(context.Background(), p, r, dims, eb, w, opts)
}

// DecompressStream reconstructs a streaming container read from r,
// writing the field to w as little-endian float32 bytes in storage order,
// each chunk as soon as it and every chunk before it are decoded, with at
// most opts.Window chunks in flight. Each frame's CRC32 is checked as it is
// read and the leaf hashes at the trailer, so a stream refused there has
// already written its earlier chunks. Returns the field geometry.
// Equivalent to core.DecompressStreamCtx with context.Background().
func DecompressStream(p *Platform, r io.Reader, w io.Writer, opts StreamOpts) (Dims, error) {
	return core.DecompressStreamCtx(context.Background(), p, r, w, opts)
}

// Decompress reconstructs a field from any FZModules container using the
// module table (the container is self-describing) and returns its
// geometry and the executor report. Every chunk payload is checked before
// it decodes — CRC32 and, on version ≥ 2 chunked and streamed artifacts,
// its SHA-256 leaf hash — and report.Region counts the checks.
// opts.Workers bounds both the chunk-level scheduler width and every
// kernel launch of the operation.
// Once ctx is canceled or its deadline passes, unstarted task bodies are
// abandoned at their dispatch boundary and the context's error is
// returned.
func Decompress(ctx context.Context, p *Platform, blob []byte, opts Opts) ([]float32, Dims, *ExecReport, error) {
	return core.DecompressReportWithOptsCtx(ctx, p, blob, opts)
}

// FullRegion selects a field's entire extent.
func FullRegion(d Dims) RegionSel { return core.FullRegion(d) }

// NewSlabCache creates a decoded-slab cache bounded to budgetBytes; pass
// it in RegionOpts.Cache to share decode work across region reads.
func NewSlabCache(budgetBytes int64) *SlabCache { return core.NewSlabCache(budgetBytes) }

// NewBytesFetcher serves region reads from an in-memory container blob.
func NewBytesFetcher(blob []byte) ChunkFetcher { return fzio.NewBytesFetcher(blob) }

// NewFileFetcher serves region reads from a container file on local
// storage; the returned fetcher also implements io.Closer.
func NewFileFetcher(path string) (ChunkFetcher, error) { return fzio.NewFileFetcher(path) }

// NewHTTPFetcher serves region reads from a container published over HTTP
// using Range requests, so selections transfer only the chunks they need.
// A nil client selects http.DefaultClient.
func NewHTTPFetcher(url string, client *http.Client) ChunkFetcher {
	return fzio.NewHTTPFetcher(url, client)
}

// OpenRegion fetches the container index behind f (never the chunk
// payloads) and returns a Region serving subvolume reads
// (Region.ReadReportCtx), fetching and decoding only the slab chunks a
// selection intersects. Works on chunked (FZMC), streamed (FZMS) and
// monolithic (FZMD) artifacts.
func OpenRegion(p *Platform, f ChunkFetcher, opts RegionOpts) (*Region, error) {
	return core.OpenRegion(p, f, opts)
}

// Stats snapshots the platform's live counters into a read-only value:
// simulated transfer volumes, kernel/host launch counts, scratch-pool
// traffic (Pool.Gets == Pool.Puts when every checkout has been returned)
// and the active SIMD kernel tier; slab-cache traffic is SlabCache.Stats.
// This is the supported way to observe a platform — metrics endpoints and
// external users need never reach into internals.
func Stats(p *Platform) Snapshot { return p.Snapshot() }

// Evaluate computes reconstruction quality (PSNR, NRMSE, max error).
func Evaluate(p *Platform, original, reconstructed []float32) (Quality, error) {
	return metrics.Evaluate(p, device.Host, original, reconstructed)
}

// VerifyBound reports the first index violating the absolute bound, or -1.
func VerifyBound(original, reconstructed []float32, absEB float64) int {
	return metrics.VerifyBound(original, reconstructed, absEB)
}

// CompressionRatio is input size over compressed size.
func CompressionRatio(inputBytes, compressedBytes int) float64 {
	return metrics.CompressionRatio(inputBytes, compressedBytes)
}

// OverallSpeedup evaluates the paper's Eq. 1 end-to-end speedup model.
func OverallSpeedup(throughputGBs, bandwidthGBs, ratio float64) float64 {
	return metrics.OverallSpeedup(throughputGBs, bandwidthGBs, ratio)
}

// Verifiable integrity and salvage. Version ≥ 2 chunked (FZMC) and
// streamed (FZMS) artifacts record a SHA-256 leaf hash per chunk payload
// in the chunk table and a Merkle root over those hashes after it. Every
// reader refuses a table whose root does not rebuild from its own leaf
// hashes. Region reads then check every fetched payload against its leaf
// hash, whatever the fetcher, and refuse tampered bytes with
// ErrProofMismatch — even bytes a 32-bit CRC collision would let through.
// Whole-blob Decompress applies the same check to every payload; the
// stream door checks each frame's CRC32 as it reads and the leaf hashes at
// the trailer. For artifacts
// that are already damaged, SurveyArtifact classifies every chunk,
// SalvageChunked rebuilds a valid container from the intact ones, and
// DecompressSalvage decodes what survived behind a DamageMask.

// ErrProofMismatch marks bytes that contradict a container's recorded
// hashes: a fetched payload whose SHA-256 leaf hash differs from the one
// its chunk table records, or a chunk table whose Merkle root does not
// rebuild from its own leaf hashes.
var ErrProofMismatch = fzio.ErrProofMismatch

// ErrCRCMismatch marks a payload whose CRC32 contradicts the container
// index — corruption detected before decode.
var ErrCRCMismatch = fzio.ErrCRCMismatch

type (
	// Survey is the damage report of one artifact: per-chunk intact /
	// corrupt / missing verdicts plus container-level facts (Merkle root
	// verification, truncation). Produce one with SurveyArtifact.
	Survey = fzio.Survey
	// SurveyChunk is one chunk's salvage verdict within a Survey.
	SurveyChunk = fzio.SurveyChunk
	// DamageMask records which planes of a salvage-read field are real
	// and which are zero-filled fabrication (see DecompressSalvage).
	DamageMask = core.DamageMask
)

// Chunk survey states, as reported in SurveyChunk.State.
const (
	// ChunkIntact marks a chunk that passes every integrity check its
	// artifact carries.
	ChunkIntact = fzio.ChunkIntact
	// ChunkCorrupt marks a chunk present but failing an integrity check.
	ChunkCorrupt = fzio.ChunkCorrupt
	// ChunkMissing marks a chunk lying (at least partly) beyond the end
	// of a truncated artifact.
	ChunkMissing = fzio.ChunkMissing
)

// SurveyArtifact walks the whole artifact behind f and classifies every
// chunk as intact, corrupt or missing, tolerating damage the normal
// readers refuse (truncated payloads, tampered roots, cut trailers).
// Errors only when nothing at all is recoverable.
func SurveyArtifact(f ChunkFetcher) (*Survey, error) { return fzio.SurveyArtifact(f) }

// SalvageChunked rebuilds a fully valid chunked (FZMC) container from
// every intact chunk of the damaged artifact behind f; recovered chunk
// payloads are bit-identical to the originals, and the rebuilt container
// carries fresh CRCs, leaf hashes and Merkle root over the survivors.
// The Survey reports what made it and what was lost.
func SalvageChunked(f ChunkFetcher) ([]byte, *Survey, error) { return fzio.SalvageChunked(f) }

// DecompressSalvage decodes whatever survives of a damaged artifact at
// its full recorded geometry: planes covered by intact chunks decode
// normally, damaged or missing planes come back zero-filled, and the
// DamageMask says which is which. Values are never silently wrong — the
// mask is the only place uncertainty lives. A canceled ctx returns its
// error.
func DecompressSalvage(ctx context.Context, p *Platform, f ChunkFetcher, opts Opts) ([]float32, *DamageMask, error) {
	return core.DecompressSalvageCtx(ctx, p, f, opts)
}
