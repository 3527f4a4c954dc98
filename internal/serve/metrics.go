package serve

import (
	"fmt"
	"io"
	"sync/atomic"
)

// metrics is the server's flat counter set, in the spirit of a
// single-struct metrics block: one atomic per fact, no registry. The
// /metrics endpoint renders them in the Prometheus text exposition
// format together with gauges read live from the admission controller,
// the slab cache and Platform.Snapshot.
type metrics struct {
	reqCompress   atomic.Int64
	reqDecompress atomic.Int64
	reqProbe      atomic.Int64
	reqRegion     atomic.Int64
	reqObjects    atomic.Int64

	errBadRequest atomic.Int64
	errInternal   atomic.Int64
	errShed       atomic.Int64
	errCanceled   atomic.Int64

	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	// proofVerified counts chunk payloads that matched their recorded
	// SHA-256 leaf hash during region reads (v2 artifacts only; v1 and
	// monolithic containers record no leaf hashes and contribute nothing).
	proofVerified atomic.Int64
	// rawBytes / compressedBytes feed the aggregate compression ratio:
	// uncompressed field volume vs. container volume across compresses.
	rawBytes        atomic.Int64
	compressedBytes atomic.Int64
}

// writeMetrics renders the full exposition: serve counters, admission
// state, slab-cache accounting, and the platform snapshot.
func (s *Server) writeMetrics(w io.Writer) {
	m := &s.met
	snap := s.p.Snapshot()
	cs := s.cache.Stats()

	fmt.Fprintf(w, "# HELP fzmodd_requests_total Requests served, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE fzmodd_requests_total counter\n")
	fmt.Fprintf(w, "fzmodd_requests_total{endpoint=%q} %d\n", "compress", m.reqCompress.Load())
	fmt.Fprintf(w, "fzmodd_requests_total{endpoint=%q} %d\n", "decompress", m.reqDecompress.Load())
	fmt.Fprintf(w, "fzmodd_requests_total{endpoint=%q} %d\n", "probe", m.reqProbe.Load())
	fmt.Fprintf(w, "fzmodd_requests_total{endpoint=%q} %d\n", "region", m.reqRegion.Load())
	fmt.Fprintf(w, "fzmodd_requests_total{endpoint=%q} %d\n", "objects", m.reqObjects.Load())

	fmt.Fprintf(w, "# HELP fzmodd_errors_total Failed requests, by class.\n")
	fmt.Fprintf(w, "# TYPE fzmodd_errors_total counter\n")
	fmt.Fprintf(w, "fzmodd_errors_total{class=%q} %d\n", "bad_request", m.errBadRequest.Load())
	fmt.Fprintf(w, "fzmodd_errors_total{class=%q} %d\n", "internal", m.errInternal.Load())
	fmt.Fprintf(w, "fzmodd_errors_total{class=%q} %d\n", "shed", m.errShed.Load())
	fmt.Fprintf(w, "fzmodd_errors_total{class=%q} %d\n", "canceled", m.errCanceled.Load())

	fmt.Fprintf(w, "# TYPE fzmodd_bytes_in_total counter\n")
	fmt.Fprintf(w, "fzmodd_bytes_in_total %d\n", m.bytesIn.Load())
	fmt.Fprintf(w, "# TYPE fzmodd_bytes_out_total counter\n")
	fmt.Fprintf(w, "fzmodd_bytes_out_total %d\n", m.bytesOut.Load())
	fmt.Fprintf(w, "# TYPE fzmodd_raw_bytes_total counter\n")
	fmt.Fprintf(w, "fzmodd_raw_bytes_total %d\n", m.rawBytes.Load())
	fmt.Fprintf(w, "# TYPE fzmodd_compressed_bytes_total counter\n")
	fmt.Fprintf(w, "fzmodd_compressed_bytes_total %d\n", m.compressedBytes.Load())
	fmt.Fprintf(w, "# HELP fzmodd_region_proofs_verified_total Chunk payloads that matched their recorded SHA-256 leaf hash in region reads (v2 artifacts).\n")
	fmt.Fprintf(w, "# TYPE fzmodd_region_proofs_verified_total counter\n")
	fmt.Fprintf(w, "fzmodd_region_proofs_verified_total %d\n", m.proofVerified.Load())
	fmt.Fprintf(w, "# HELP fzmodd_compression_ratio Aggregate raw/compressed volume.\n")
	fmt.Fprintf(w, "# TYPE fzmodd_compression_ratio gauge\n")
	fmt.Fprintf(w, "fzmodd_compression_ratio %g\n", ratio(m.rawBytes.Load(), m.compressedBytes.Load()))

	fmt.Fprintf(w, "# HELP fzmodd_admission_budget Total leasable workers.\n")
	fmt.Fprintf(w, "# TYPE fzmodd_admission_budget gauge\n")
	fmt.Fprintf(w, "fzmodd_admission_budget %d\n", s.adm.Budget())
	fmt.Fprintf(w, "# TYPE fzmodd_admission_in_use gauge\n")
	fmt.Fprintf(w, "fzmodd_admission_in_use %d\n", s.adm.InUse())
	fmt.Fprintf(w, "# HELP fzmodd_queue_depth Requests waiting for a worker lease.\n")
	fmt.Fprintf(w, "# TYPE fzmodd_queue_depth gauge\n")
	fmt.Fprintf(w, "fzmodd_queue_depth %d\n", s.adm.QueueDepth())
	fmt.Fprintf(w, "# TYPE fzmodd_leases_granted_total counter\n")
	fmt.Fprintf(w, "fzmodd_leases_granted_total %d\n", s.adm.Granted())
	fmt.Fprintf(w, "# HELP fzmodd_shed_total Requests refused by the admission controller.\n")
	fmt.Fprintf(w, "# TYPE fzmodd_shed_total counter\n")
	fmt.Fprintf(w, "fzmodd_shed_total %d\n", s.adm.Shed())

	fmt.Fprintf(w, "# HELP fzmodd_pool_hit_rate Scratch-pool slab reuse rate.\n")
	fmt.Fprintf(w, "# TYPE fzmodd_pool_hit_rate gauge\n")
	fmt.Fprintf(w, "fzmodd_pool_hit_rate %g\n", snap.Pool.HitRate())
	fmt.Fprintf(w, "# TYPE fzmodd_pool_gets_total counter\n")
	fmt.Fprintf(w, "fzmodd_pool_gets_total %d\n", snap.Pool.Gets)
	fmt.Fprintf(w, "# TYPE fzmodd_pool_puts_total counter\n")
	fmt.Fprintf(w, "fzmodd_pool_puts_total %d\n", snap.Pool.Puts)

	fmt.Fprintf(w, "# HELP fzmodd_slab_cache_hit_rate Region slab-cache hit rate.\n")
	fmt.Fprintf(w, "# TYPE fzmodd_slab_cache_hit_rate gauge\n")
	fmt.Fprintf(w, "fzmodd_slab_cache_hit_rate %g\n", ratio64(cs.Hits, cs.Hits+cs.Misses))
	fmt.Fprintf(w, "# TYPE fzmodd_slab_cache_hits_total counter\n")
	fmt.Fprintf(w, "fzmodd_slab_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "# TYPE fzmodd_slab_cache_misses_total counter\n")
	fmt.Fprintf(w, "fzmodd_slab_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# TYPE fzmodd_slab_cache_evictions_total counter\n")
	fmt.Fprintf(w, "fzmodd_slab_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(w, "# TYPE fzmodd_slab_cache_bytes gauge\n")
	fmt.Fprintf(w, "fzmodd_slab_cache_bytes %d\n", cs.Bytes)
	fmt.Fprintf(w, "# HELP fzmodd_slab_singleflight_dedup_total Chunk decodes served by another reader's in-flight decode.\n")
	fmt.Fprintf(w, "# TYPE fzmodd_slab_singleflight_dedup_total counter\n")
	fmt.Fprintf(w, "fzmodd_slab_singleflight_dedup_total %d\n", cs.DedupHits)
	fmt.Fprintf(w, "# HELP fzmodd_slab_flights In-progress chunk decodes.\n")
	fmt.Fprintf(w, "# TYPE fzmodd_slab_flights gauge\n")
	fmt.Fprintf(w, "fzmodd_slab_flights %d\n", cs.Flights)

	fmt.Fprintf(w, "# HELP fzmodd_draining Whether the server is draining (1) or serving (0).\n")
	fmt.Fprintf(w, "# TYPE fzmodd_draining gauge\n")
	fmt.Fprintf(w, "fzmodd_draining %d\n", b2i(s.draining.Load()))
	fmt.Fprintf(w, "# HELP fzmodd_inflight_requests Data-plane requests currently executing.\n")
	fmt.Fprintf(w, "# TYPE fzmodd_inflight_requests gauge\n")
	fmt.Fprintf(w, "fzmodd_inflight_requests %d\n", s.InFlight())

	fmt.Fprintf(w, "# TYPE fzmodd_kernel_launches_total counter\n")
	fmt.Fprintf(w, "fzmodd_kernel_launches_total %d\n", snap.KernelLaunches)
	fmt.Fprintf(w, "# TYPE fzmodd_host_launches_total counter\n")
	fmt.Fprintf(w, "fzmodd_host_launches_total %d\n", snap.HostLaunches)
	fmt.Fprintf(w, "# HELP fzmodd_kernel_tier Active SIMD kernel tier (1 = active).\n")
	fmt.Fprintf(w, "# TYPE fzmodd_kernel_tier gauge\n")
	fmt.Fprintf(w, "fzmodd_kernel_tier{tier=%q} 1\n", snap.Kernels)
}

func ratio(raw, compressed int64) float64 {
	if compressed <= 0 {
		return 0
	}
	return float64(raw) / float64(compressed)
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

func ratio64(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
