package main

import (
	"strings"

	"fzmod/internal/grid"
	"fzmod/internal/sdrbench"
)

// Run constants. They are the same on every commit, so two runs of one seed
// do the same work.
const (
	warmupOps    = 3  // untimed ops per phase, done during set-up
	setupRepeats = 3  // set-up cycles per run; setup_s is their median
	tracedMinOps = 5  // staged-replay rounds a traced run does at least
	regionPlanes = 16 // slow-axis extent of a region selection
	regionSels   = 64 // length of the seeded region-selection schedule
	warmDiscard  = 100
	warmReads    = 2000
	extraOps     = 5 // ops per fixed-count traced phase (stream, w=nproc, kernels)
	memoryOps    = 5 // ops per phase of the fixed sequence peak_rss_mib is measured over

	serveClients = 2 // closed-loop clients of serve-mix (= nproc on the seed box)
	fieldWorkers = 1 // Opts.Workers of every field op: throughput is GB/s/core
)

// Shares of --seconds each timed phase of an end-to-end run gets.
var (
	fieldShares = struct{ compress, decompress, region, small float64 }{0.30, 0.30, 0.25, 0.15}
	serveShares = struct{ small, large, region, decompress float64 }{0.25, 0.25, 0.25, 0.25}
)

// fieldSpec is one field workload: a synthetic SDRBench field pushed through
// one preset pipeline at one relative bound, in a fixed number of chunks.
type fieldSpec struct {
	dataset sdrbench.Dataset
	dims    grid.Dims // of one realization
	stack   int       // realizations stacked along the slowest axis (see generate)
	quick   grid.Dims // the whole field tests use
	preset  string    // "default", "speed" or "quality"
	relEB   float64
	chunks  int
}

// generate builds a field of stack realizations of the dataset, each
// dims-shaped and from its own seed, stacked along the slowest axis — a run of
// snapshots. One sdrbench realization is a few dozen random modes, so its
// compressibility swings with the seed (NYX: ratio 19-29 over 40 seeds);
// a stack of eight halves that swing, and ratio and PSNR become comparable
// from seed to seed. Workloads chunk a stack one realization per chunk, so no
// predictor ever crosses a seam.
func generate(ds sdrbench.Dataset, dims grid.Dims, stack int, seed int64) ([]float32, grid.Dims) {
	if stack <= 1 {
		return sdrbench.Generate(ds, dims, seed), dims
	}
	full := dims.WithSlowExtent(stack * dims.SlowExtent())
	data := make([]float32, 0, full.N())
	for i := 0; i < stack; i++ {
		data = append(data, sdrbench.Generate(ds, dims, seed*int64(stack)+int64(i))...)
	}
	return data, full
}

// workload names one benchmark workload. field is nil for serve-mix.
type workload struct {
	name  string
	why   string
	field *fieldSpec
}

// Field sizes are held to 6–16 MiB so that one set-up cycle (dominated by
// sdrbench.Generate) stays near 1–2 s and three of them fit in a run; every
// field is still larger than the 4 MiB per-core L2 of the seed box.
var workloads = []workload{
	{
		name: "nyx-default",
		why:  "Paper's headline preset on smooth 3-D data: Lorenzo, histogram and Huffman do nearly all the work; fzg and spline none.",
		field: &fieldSpec{dataset: sdrbench.NYX, dims: grid.D3(80, 80, 80), stack: 8, quick: grid.D3(32, 32, 32),
			preset: "default", relEB: 1e-4, chunks: 8},
	},
	{
		name: "hacc-default",
		why:  "Same layers on rough 1-D data (CR near 3): 1-D Lorenzo kernel, flat code histogram, long Huffman codes, many outliers, 9x the payload for CRC/SHA-256.",
		field: &fieldSpec{dataset: sdrbench.HACC, dims: grid.D1(4 << 20), quick: grid.D1(32 << 10),
			preset: "default", relEB: 1e-4, chunks: 8},
	},
	{
		name: "hurr-speed",
		why:  "Speed preset: the fzg bitshuffle encoder does nearly all the work and histogram/Huffman none, so a Huffman change must show no change here.",
		field: &fieldSpec{dataset: sdrbench.HURR, dims: grid.D3(160, 160, 64), quick: grid.D3(32, 32, 16),
			preset: "speed", relEB: 1e-2, chunks: 8},
	},
	{
		name: "cesm-quality",
		why:  "Quality preset on the only 2-D input: the spline predictor dominates, the top-k histogram is used only here, Lorenzo does none.",
		field: &fieldSpec{dataset: sdrbench.CESM, dims: grid.D2(1800, 900), quick: grid.D2(128, 64),
			preset: "quality", relEB: 1e-4, chunks: 6},
	},
	{
		name: "serve-mix",
		why:  "In-process fzmodd with 2 closed-loop clients: admission, batcher, HTTP and object store carry the small and region classes; two requests share one warm platform.",
	},
}

// Inputs of serve-mix (NYX; the large one a stack, see generate).
const serveLargeStack = 8

var (
	serveSmallDims      = grid.D3(32, 32, 32) // 128 KiB: below BatchThreshold, so batched
	serveLargeDims      = grid.D3(64, 64, 64) // ×serveLargeStack = 8 MiB: leases the full budget
	serveLargeDimsQuick = grid.D3(48, 48, 48) // above BatchThreshold, still direct
)

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Per-layer metrics a traced run reports, grouped by layer (the prefix before
// the dot is the module name); a workload reports 0 for a layer it does not
// use. The end-to-end metrics of an untraced run are set in endToEnd (field.go,
// serve.go) and runWorkload (setup_s); README.md says what each means.
var perLayerNames = []string{
	"preprocess.resolve_ms",
	"lorenzo.encode_ms", "lorenzo.decode_ms", "lorenzo.outlier_share",
	"spline.encode_ms", "spline.decode_ms", "spline.outlier_share",
	"histogram.standard_ms", "histogram.topk_ms",
	"huffman.build_ms", "huffman.encode_ms", "huffman.decode_ms", "huffman.bits_per_code",
	"fzg.encode_ms", "fzg.decode_ms", "fzg.bits_per_code",
	"kernels.quantize_gbs", "kernels.diffcodes_gbs", "kernels.minmax_gbs", "kernels.histaccum_gbs",
	"fzio.marshal_ms", "fzio.assemble_ms", "fzio.crc32_ms", "fzio.leafhash_ms", "fzio.unmarshal_ms",
	"fzio.fetch_index_ms", "fzio.verify_proof_ms", "fzio.fetch_reads", "fzio.fetch_bytes", "fzio.overhead_bytes",
	"core.compress_self_ms", "core.decompress_self_ms", "core.region_self_ms",
	"core.compress_coverage", "core.decompress_coverage",
	"core.region_chunks_decoded", "core.region_cache_hit_rate", "core.region_warm_p50_ms",
	"core.allocs_per_compress", "core.allocs_per_decompress",
	"core.stream_compress_gbs", "core.stream_decompress_gbs", "core.stream_over_chunked",
	"stf.tasks", "stf.critical_path", "stf.busy_ms", "stf.idle_share",
	"stf.compress_speedup_wmax", "stf.decompress_speedup_wmax",
	"device.pool_gets_per_op", "device.pool_hit_rate", "device.launches_per_op", "device.sim_transfer_bytes_per_op",
	"serve.batch_queue_ms", "serve.batch_flush_ms", "serve.execute_ms", "serve.http_overhead_ms",
	"serve.small_p90_ms", "serve.large_p90_ms", "serve.region_p90_ms", "serve.decompress_p50_ms",
	"serve.gbs", "serve.shed", "serve.batches_by_size", "serve.batches_by_wait", "serve.batch_fill",
	"serve.slab_cache_hit_rate", "serve.admission_peak",
	"trace.overhead_pct",
}

// perLayerUnit is the unit a per-layer metric's name implies.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_gbs"), name == "serve.gbs":
		return "GB/s"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_bytes"), strings.HasSuffix(name, "_bytes_per_op"):
		return "bytes"
	case strings.HasSuffix(name, "bits_per_code"):
		return "bits"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_rate"), strings.HasSuffix(name, "_coverage"),
		strings.HasSuffix(name, "_wmax"), strings.HasSuffix(name, "_over_chunked"):
		return "ratio"
	default:
		return "count"
	}
}
