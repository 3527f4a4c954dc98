package core

// Opts is the one options surface every facade entry point shares. The
// four historical names — ChunkOpts, StreamOpts, DecompressOpts,
// RegionOpts — are aliases of this struct, so existing call sites keep
// compiling unchanged while servers and tools configure every operation
// through a single shape. Each entry point reads the fields it
// understands and documents its own zero-value defaults; fields an
// operation does not use are ignored (a Window on a chunked compress, a
// Cache on a stream read).
//
// The zero value is always valid and selects that operation's defaults.
type Opts struct {
	// Workers is the operation's total parallelism budget, resolved the
	// same way by every entry point (newCtx): the budget is Workers, or the
	// platform's worker width when Workers is 0. It caps the kernel width of
	// every launch the operation performs (the scheduler runs the graph over
	// a narrowed platform view sharing the machine's pools) AND the
	// chunk-level scheduler width at each place, which is min(budget,
	// chunks in flight) — the chunk count for in-memory operations, the
	// window for the streaming ones. Workers = 1 therefore runs one task
	// body at a time per place: the accel and host lanes still overlap, on
	// the write side and the read side alike. Output bytes never depend on
	// it.
	Workers int

	// ChunkElems is the target elements per chunk for the in-memory and
	// streaming write paths; the builder rounds it to whole planes of the
	// slowest-varying dimension. 0 (or less) selects the automatic rule: the
	// in-memory door keeps a field below AutoChunkElems elements as one
	// chunk and cuts a larger one at DefaultChunkElems; the streaming door
	// always cuts at DefaultChunkElems, which its O(window) memory bound
	// depends on. Read paths ignore it (chunk geometry is recorded in the
	// container).
	ChunkElems int

	// Window caps the chunks in flight on the streaming entry points, and
	// with them resident memory: chunk i is read only once chunk i−Window
	// has been written out. 0 selects DefaultStreamWindow. Non-streaming
	// entry points ignore it.
	Window int

	// Cache, when non-nil, holds decoded slabs across region reads (and
	// across Regions — entries are keyed by container content). nil
	// disables caching: every read decodes the chunks it needs. Entry
	// points other than the region read path ignore it.
	Cache *SlabCache

	// Deprecated: VerifyProofs has no effect. Every read checks every
	// fetched chunk payload against the leaf hash its chunk table records
	// (fzio.ContainerIndex.VerifyChunk), whatever the fetcher.
	VerifyProofs bool
}

// ChunkOpts configures the chunked compression graph; it is an alias of
// the unified Opts (ChunkElems and Workers are read, the zero value
// selects the automatic chunking rule and a parallelism budget as wide as
// the platform's worker count).
type ChunkOpts = Opts

// StreamOpts configures the streaming entry points; it is an alias of the
// unified Opts (ChunkElems, Window and Workers are read; the zero value
// selects DefaultChunkElems-sized chunks, a DefaultStreamWindow window,
// and a parallelism budget as wide as the platform's worker count).
type StreamOpts = Opts

// DecompressOpts configures the decompression executor; it is an alias of
// the unified Opts (only Workers is read; the zero value selects the
// platform's full worker width).
type DecompressOpts = Opts

// RegionOpts configures region reads; it is an alias of the unified Opts
// (Workers and Cache are read; the zero value decodes with the platform's
// full worker width and no slab cache).
type RegionOpts = Opts

// window resolves the effective streaming window for n chunks.
func (o Opts) window(n int) int {
	w := o.Window
	if w <= 0 {
		w = DefaultStreamWindow
	}
	if w > n {
		w = n
	}
	return w
}
