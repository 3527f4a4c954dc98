package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/fzio/cache"
	"fzmod/internal/grid"
)

// This file is the random-access read path: instead of decoding a whole
// container, a region read plans against the container's chunk index
// (fzio.FetchIndex) and fetches and decodes only the slab chunks a
// requested subvolume intersects — through the same executor as full
// decompression (readChunks, exec.go), which assembles the caller-sized
// output by copying each slab's overlap window, handling the halo where a
// selection crosses slab boundaries.
// Decoded slabs can be kept in a shared size-bounded LRU (SlabCache), so
// many readers of overlapping regions pay each chunk's fetch-and-decode
// cost once.

// RegionSel selects the half-open subvolume [X0,X1) × [Y0,Y1) × [Z0,Z1) of
// a field in its native x-fastest coordinates. For 2-D fields use Z0=0,
// Z1=1; for 1-D fields additionally Y0=0, Y1=1 (matching the trailing
// singleton extents of grid.Dims).
type RegionSel struct {
	X0, X1 int
	Y0, Y1 int
	Z0, Z1 int
}

// FullRegion selects the entire field.
func FullRegion(d grid.Dims) RegionSel {
	return RegionSel{X1: d.X, Y1: d.Y, Z1: d.Z}
}

// Dims returns the selection's output geometry.
func (s RegionSel) Dims() grid.Dims {
	return grid.Dims{X: s.X1 - s.X0, Y: s.Y1 - s.Y0, Z: s.Z1 - s.Z0}
}

// String renders the selection in the CLI's i0:i1,j0:j1,k0:k1 syntax.
func (s RegionSel) String() string {
	return fmt.Sprintf("%d:%d,%d:%d,%d:%d", s.X0, s.X1, s.Y0, s.Y1, s.Z0, s.Z1)
}

// ParseRegionSel parses String's i0:i1,j0:j1,k0:k1 form against the field
// geometry: up to three comma-separated half-open ranges, x fastest.
// Trailing axes may be omitted and span their full extent (matching the
// trailing singleton convention of grid.Dims); the empty string selects
// the whole field. Range bounds are checked by Validate (and by the read).
func ParseRegionSel(s string, d grid.Dims) (RegionSel, error) {
	sel := FullRegion(d)
	if s == "" {
		return sel, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) > 3 {
		return RegionSel{}, fmt.Errorf("region %q: want i0:i1,j0:j1,k0:k1 with at most 3 axes", s)
	}
	axes := [3][2]*int{{&sel.X0, &sel.X1}, {&sel.Y0, &sel.Y1}, {&sel.Z0, &sel.Z1}}
	for i, part := range parts {
		los, his, _ := strings.Cut(part, ":")
		lo, err1 := strconv.Atoi(strings.TrimSpace(los))
		hi, err2 := strconv.Atoi(strings.TrimSpace(his))
		if err1 != nil || err2 != nil {
			return RegionSel{}, fmt.Errorf("region %q: bad range %q (want lo:hi)", s, part)
		}
		*axes[i][0], *axes[i][1] = lo, hi
	}
	return sel, nil
}

// Validate checks the selection against the field geometry: every axis
// must be a non-empty half-open range inside the extent.
func (s RegionSel) Validate(d grid.Dims) error {
	type axis struct {
		name   string
		lo, hi int
		extent int
	}
	for _, a := range []axis{
		{"x", s.X0, s.X1, d.X},
		{"y", s.Y0, s.Y1, d.Y},
		{"z", s.Z0, s.Z1, d.Z},
	} {
		if a.lo < 0 || a.hi > a.extent || a.lo >= a.hi {
			return fmt.Errorf("core: region %s selects %s range [%d,%d) of a field with %s extent %d",
				s, a.name, a.lo, a.hi, a.name, a.extent)
		}
	}
	return nil
}

// slowRange returns the selection's half-open range along the field's
// slowest-varying dimension — the axis chunks tile.
func (s RegionSel) slowRange(d grid.Dims) (int, int) {
	switch d.Rank() {
	case 3:
		return s.Z0, s.Z1
	case 2:
		return s.Y0, s.Y1
	default:
		return s.X0, s.X1
	}
}

// slabKey identifies one decoded slab across every reader of the same
// artifact: the container's content key plus the chunk index.
type slabKey struct {
	container uint64
	chunk     int
}

// SlabCache is a size-bounded LRU of decoded slabs shared between region
// reads (and safe for concurrent use). Entries are keyed by container
// content — two Regions over byte-identical artifacts share entries — and
// the budget counts decoded float32 bytes.
//
// The cache is also the single-flight rendezvous: concurrent reads that
// miss on the same slab share one fetch→decode→insert flight instead of
// redundantly fetching and decoding it N times. The first reader to reach
// a missing slab leads its flight; later readers wait for the leader's
// slab (counted as dedup hits) and fall back to decoding themselves only
// if the leader fails.
type SlabCache struct {
	lru *cache.LRU[slabKey, []float32]

	mu      sync.Mutex
	flights map[slabKey]*slabFlight
	dedup   atomic.Int64
}

// slabFlight is one in-progress fetch→decode→insert shared by every
// reader that missed on the same slab while it ran. done closes when the
// leader finishes; slab/err are valid after.
type slabFlight struct {
	done chan struct{}
	slab []float32
	err  error
}

// NewSlabCache creates a cache bounded to budgetBytes of decoded slabs.
func NewSlabCache(budgetBytes int64) *SlabCache {
	return &SlabCache{
		lru:     cache.New[slabKey, []float32](budgetBytes),
		flights: make(map[slabKey]*slabFlight),
	}
}

// await enters the single-flight protocol for key and blocks until it
// resolves. Exactly one of the returns is meaningful: a slab (the key
// landed in the cache since the read planned, or another reader's flight
// delivered it — no work at all), a freshly-registered flight the caller
// now leads and must complete with finish, or ctx's error.
func (c *SlabCache) await(ctx context.Context, key slabKey) ([]float32, *slabFlight, error) {
	for {
		c.mu.Lock()
		if v, ok := c.lru.Peek(key); ok {
			c.mu.Unlock()
			return v, nil, nil
		}
		fl, ok := c.flights[key]
		if !ok {
			fl = &slabFlight{done: make(chan struct{})}
			c.flights[key] = fl
			c.mu.Unlock()
			return nil, fl, nil
		}
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
		if fl.err == nil {
			return fl.slab, nil, nil
		}
		// The leader failed; loop to claim the flight and decode it
		// ourselves.
	}
}

// finish completes a flight: on success the slab is admitted to the LRU
// and handed to every waiter; on error the flight is simply retired, so
// the next joiner becomes a fresh leader. Idempotent — decode graphs call
// it from their error sweep as well as their success path.
func (c *SlabCache) finish(key slabKey, fl *slabFlight, slab []float32, err error) {
	c.mu.Lock()
	if c.flights[key] != fl { // already finished
		c.mu.Unlock()
		return
	}
	delete(c.flights, key)
	fl.slab, fl.err = slab, err
	if err == nil {
		c.lru.Put(key, slab, int64(len(slab))*4)
	}
	c.mu.Unlock()
	close(fl.done)
}

// DedupHits returns the chunk decodes avoided by joining another reader's
// in-flight decode.
func (c *SlabCache) DedupHits() int64 { return c.dedup.Load() }

// SlabCacheStats extends the LRU counters with the single-flight
// accounting.
type SlabCacheStats struct {
	cache.Stats
	// DedupHits is the cumulative chunk decodes served by another
	// reader's in-flight decode instead of a redundant fetch+decode.
	DedupHits int64
	// Flights is the in-progress decodes at snapshot time.
	Flights int64
}

// Stats snapshots the cache counters.
func (c *SlabCache) Stats() SlabCacheStats {
	c.mu.Lock()
	flights := int64(len(c.flights))
	c.mu.Unlock()
	return SlabCacheStats{Stats: c.lru.Stats(), DedupHits: c.dedup.Load(), Flights: flights}
}

// Reset drops every cached slab and zeroes the counters. In-progress
// flights are left to complete; only the LRU and counters reset.
func (c *SlabCache) Reset() {
	c.lru.Reset()
	c.dedup.Store(0)
}

// RegionStats summarizes one index-planned read (a region read or
// Decompress) for the ExecReport: how much of the container the selection
// touched and how the slab cache fared.
type RegionStats struct {
	// Sel is the selection the read served.
	Sel RegionSel
	// Chunks is the number of slab chunks the selection intersects.
	Chunks int
	// Decoded is how many of those this read fetched and decoded itself.
	Decoded int
	// CacheHits is how many were served from the slab cache.
	CacheHits int
	// DedupHits is how many were served by joining another reader's
	// in-flight decode (single-flight) instead of fetching redundantly.
	DedupHits int
	// ProofVerified counts the fetched payloads this read checked against
	// their recorded leaf hashes: every payload it fetches from an
	// artifact that records them (format version ≥ 2 FZMC and FZMS),
	// none from a v1 or monolithic artifact.
	ProofVerified int64
	// PayloadBytes is the compressed payload volume fetched for the
	// decoded chunks (index bytes excluded).
	PayloadBytes int64
	// Cache snapshots the slab cache after the read (zero without one).
	Cache SlabCacheStats
}

// Region is an open container positioned for random-access reads: the
// parsed chunk index plus the fetcher and options to serve selections
// with. Open once, read many; concurrent Reads are safe.
type Region struct {
	p    *device.Platform
	f    fzio.ChunkFetcher
	ix   *fzio.ContainerIndex
	opts RegionOpts
}

// OpenRegion fetches the container index behind f (never the payloads) and
// returns a Region serving subvolume reads from it. Works on chunked
// (FZMC), streamed (FZMS) and monolithic (FZMD) artifacts; a monolithic
// artifact is treated as a single whole-field chunk. Every fetched payload
// is checked against its chunk CRC and, where the artifact records one,
// its SHA-256 leaf hash, whatever the fetcher.
func OpenRegion(p *device.Platform, f fzio.ChunkFetcher, opts RegionOpts) (*Region, error) {
	ix, err := fzio.FetchIndex(f)
	if err != nil {
		return nil, fmt.Errorf("core: opening region reader: %w", err)
	}
	return &Region{p: p, f: f, ix: ix, opts: opts}, nil
}

// WithWorkers returns a view of the open region that reads under a budget
// of n workers (Opts.Workers), sharing the parsed index, the fetcher and
// the cache: a server opens a region — and refuses a bad selection against
// it — before it knows the width its admission lease will grant.
func (r *Region) WithWorkers(n int) *Region {
	cp := *r
	cp.opts.Workers = n
	return &cp
}

// Dims returns the full field geometry of the underlying container.
func (r *Region) Dims() grid.Dims { return r.ix.Header.Dims }

// Index returns the parsed container index.
func (r *Region) Index() *fzio.ContainerIndex { return r.ix }

// ReadReport is ReadReportCtx without a context.
func (r *Region) ReadReport(sel RegionSel) ([]float32, *ExecReport, error) {
	return r.ReadReportCtx(context.Background(), sel)
}

// ReadReportCtx decodes the selected subvolume into a freshly allocated
// sel.Dims().N()-element field (x-fastest, like every field in the
// framework) and returns the executor report; report.Region carries the
// chunk and cache accounting. It plans the chunks the selection
// intersects, serves cache hits by window copy and hands the rest to
// readChunks. A cancellation or deadline on gctx stops fetch/decode task
// bodies not yet started at their dispatch boundary, drains the
// sub-graphs, and returns the context's error. Chunks already decoded are
// still admitted to the cache.
func (r *Region) ReadReportCtx(gctx context.Context, sel RegionSel) ([]float32, *ExecReport, error) {
	dims := r.ix.Header.Dims
	if err := sel.Validate(dims); err != nil {
		return nil, nil, err
	}
	rd := &chunkReads{ix: r.ix, fetch: r.fetch, dims: dims, sel: sel,
		out: make([]float32, sel.Dims().N()), cache: r.opts.Cache}
	s0, s1 := sel.slowRange(dims)
	for _, c := range planChunks(r.ix, s0, s1) {
		if rd.cache != nil {
			if slab, ok := rd.cache.lru.Get(slabKey{r.ix.Key, c.chunk}); ok {
				copyWindow(rd.out, sel, dims, slab, c.lo, c.planes)
				rd.hits++
				continue
			}
		}
		rd.chunks = append(rd.chunks, c)
	}
	report, err := readChunks(gctx, r.p, r.opts.Workers, rd)
	if err != nil {
		return nil, report, err
	}
	return rd.out, report, nil
}

// fetch reads one chunk payload with a single ReadRange; readChunks
// accepts it.
func (r *Region) fetch(chunk int) ([]byte, error) {
	ref := r.ix.Chunks[chunk]
	if r.ix.Flavor == fzio.FlavorMonolithic && ref.Length > fzio.MaxMonolithicFetchBytes {
		return nil, fmt.Errorf("monolithic artifact of %d bytes exceeds the %d-byte fetch limit",
			ref.Length, fzio.MaxMonolithicFetchBytes)
	}
	return r.f.ReadRange(int64(ref.Offset), ref.Length)
}

// copyWindow copies the overlap between the selection and one decoded slab
// into the output field. slab covers planes [slabLo, slabLo+planes) of the
// field's slowest dimension at full extent in the faster ones; rows along
// x are contiguous in both source and destination, so the copy runs
// row-at-a-time.
func copyWindow(out []float32, sel RegionSel, dims grid.Dims, slab []float32, slabLo, planes int) {
	win, org := sel, [3]int{} // the overlap, and the slab's origin in the field
	switch dims.Rank() {
	case 3:
		win.Z0, win.Z1, org[2] = max(sel.Z0, slabLo), min(sel.Z1, slabLo+planes), slabLo
	case 2:
		win.Y0, win.Y1, org[1] = max(sel.Y0, slabLo), min(sel.Y1, slabLo+planes), slabLo
	default:
		win.X0, win.X1, org[0] = max(sel.X0, slabLo), min(sel.X1, slabLo+planes), slabLo
	}
	sd, od, nx := dims.WithSlowExtent(planes), sel.Dims(), win.X1-win.X0
	for z := win.Z0; z < win.Z1; z++ {
		for y := win.Y0; y < win.Y1; y++ {
			src := sd.Idx(win.X0-org[0], y-org[1], z-org[2])
			dst := od.Idx(win.X0-sel.X0, y-sel.Y0, z-sel.Z0)
			copy(out[dst:dst+nx], slab[src:src+nx])
		}
	}
}
