// Command fzmod is the CLI compressor: it compresses raw little-endian
// float32 files with a chosen pipeline and error bound, decompresses
// FZModules containers, and reports ratio/quality metrics.
//
// Usage:
//
//	fzmod -z  -i data.f32 -o data.fz  -dims 512x512x512 -eb 1e-4 [-mode rel|abs] [-pipeline default|speed|quality] [-secondary]
//	       [-chunk elems] [-workers n] [-v]
//	fzmod -z  -stream -i data.f32 -o data.fzs -dims 512x512x512 -eb 1e-3 -mode abs [-window n]
//	fzmod -d  -i data.fz  -o back.f32 [-v]
//	fzmod -d  -region 0:64,0:64,8:16 -i data.fz -o sub.f32
//	fzmod -probe -i data.fz
//	fzmod -verify  -i data.fzc
//	fzmod -salvage -i damaged.fzc -o recovered.fzc
//
// After -z the tool verifies the roundtrip and prints CR, bitrate, PSNR
// and the measured throughput. -chunk sets the chunk granularity in
// elements (0 applies the library's rule: in memory a field below
// fzmod.AutoChunkElems elements is one chunk and a larger one is cut at
// fzmod.DefaultChunkElems, as -stream always is); -workers caps the
// operation's parallelism; -v prints the executor report — task count,
// stage overlap, critical path, worker slots used, and the buffer-pool
// hit rate. A container's bytes depend only on the input and on -dims,
// -eb, -mode, -pipeline, -secondary, -chunk and -stream: -workers,
// -window, -v, -verify and every other flag never change them.
//
// -stream switches to the out-of-core path: the input is consumed chunk by
// chunk (at most -window chunks in flight) and chunks flush to the output
// in order as they finish, so files far larger than memory — or data
// arriving on stdin — compress in bounded memory. "-" as the input or
// output names stdin/stdout, so fzmod composes in shell pipelines:
//
//	cat huge.f32 | fzmod -z -stream -i - -o - -dims 1024x1024x1024 -eb 2.5 -mode abs | ssh host 'cat > huge.fzs'
//
// Streaming compression requires an absolute bound (-mode abs): a
// relative bound would need the whole field's value range before the
// first chunk could be emitted. Decompression detects the container
// flavor from its magic, so -d handles monolithic, chunked and streaming
// containers alike; streaming containers decode out-of-core.
//
// -region restricts decompression to a subvolume: only the slab chunks
// the half-open selection i0:i1,j0:j1,k0:k1 intersects are fetched and
// decoded (trailing axes may be omitted and span their full extent).
// The input must be random-access — a local file or an http(s):// URL
// served with Range support — so "-i -" is rejected. See docs/FORMAT.md
// for the container layout that makes this possible. Every fetched chunk
// is checked against its CRC32 and, on version ≥ 2 containers, its
// SHA-256 leaf hash, so tampered bytes are refused with a hash mismatch
// even when the chunk CRC32 collides. A whole-artifact -d applies the same
// checks; on a streamed container it checks each frame's CRC32 as it
// writes and the leaf hashes at the trailer, so it may have written
// earlier chunks before it refuses.
//
// -verify (without -z, -d or -probe) is the integrity audit: the whole
// artifact is walked, every chunk is checked against its recorded CRC32
// and (on version ≥ 2 containers) its SHA-256 leaf hash, and the exit
// status is nonzero when any chunk is damaged — naming the chunk.
// -salvage rebuilds a fully valid chunked container from every intact
// chunk of a damaged artifact; recovered payloads are bit-identical to
// the originals.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fzmod"
	"fzmod/internal/core"
	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/metrics"
	"fzmod/internal/preprocess"
)

// config carries the parsed command line plus the process streams, so
// tests can run full CLI flows in-process against pipes and buffers.
type config struct {
	compress, decompress, probe bool
	in, out                     string
	dims                        string
	eb                          float64
	mode                        string
	pipeline                    string
	secondary                   bool
	verify                      bool
	chunk                       int
	workers                     int
	stream                      bool
	window                      int
	region                      string
	salvage                     bool
	verbose                     bool
	// verifyArtifact selects the integrity-audit mode: -verify given
	// explicitly with none of -z/-d/-probe/-salvage (main detects the
	// explicit flag via flag.Visit; tests set this field directly).
	verifyArtifact bool

	stdin  io.Reader
	stdout io.Writer
	stderr io.Writer
}

func main() {
	var cfg config
	flag.BoolVar(&cfg.compress, "z", false, "compress")
	flag.BoolVar(&cfg.decompress, "d", false, "decompress")
	flag.BoolVar(&cfg.probe, "probe", false, "print container metadata")
	flag.StringVar(&cfg.in, "i", "", "input file (- for stdin)")
	flag.StringVar(&cfg.out, "o", "", "output file (- for stdout)")
	flag.StringVar(&cfg.dims, "dims", "", "field dims, e.g. 512x512x512 (x fastest)")
	flag.Float64Var(&cfg.eb, "eb", 1e-4, "error bound")
	flag.StringVar(&cfg.mode, "mode", "rel", "bound mode: rel (value-range relative) or abs")
	flag.StringVar(&cfg.pipeline, "pipeline", "default", "pipeline: default, speed, quality")
	flag.BoolVar(&cfg.secondary, "secondary", false, "attach the secondary (zstd-slot) encoder")
	flag.BoolVar(&cfg.verify, "verify", true, "verify roundtrip after compression (in-memory paths)")
	flag.IntVar(&cfg.chunk, "chunk", 0, "chunk granularity in elements (0 = library default: one chunk below 16Mi elements, 2Mi-element chunks above and with -stream)")
	flag.IntVar(&cfg.workers, "workers", 0, "parallelism budget (0 = platform width; never changes output bytes)")
	flag.BoolVar(&cfg.stream, "stream", false, "stream out-of-core: bounded-memory compression/decompression over files or pipes")
	flag.IntVar(&cfg.window, "window", 0, "streaming: max chunks in flight (0 = default)")
	flag.StringVar(&cfg.region, "region", "", "decompress only the subvolume i0:i1,j0:j1,k0:k1 (half-open, x fastest; needs a seekable -i)")
	flag.BoolVar(&cfg.salvage, "salvage", false, "rebuild a valid chunked container from every intact chunk of a damaged artifact")
	flag.BoolVar(&cfg.verbose, "v", false, "print the executor report (tasks, overlap, pool hit rate)")
	flag.Parse()
	// -verify alone (no -z/-d/-probe/-salvage) is the artifact integrity
	// audit rather than the post-compress roundtrip check the same flag
	// gates after -z.
	if !cfg.compress && !cfg.decompress && !cfg.probe && !cfg.salvage {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "verify" {
				cfg.verifyArtifact = true
			}
		})
	}
	cfg.stdin = os.Stdin
	cfg.stdout = os.Stdout
	cfg.stderr = os.Stderr

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fzmod:", err)
		os.Exit(1)
	}
}

// openIn resolves -i to a reader ("-" = the configured stdin).
func (cfg *config) openIn() (io.Reader, func(), error) {
	if cfg.in == "-" {
		return cfg.stdin, func() {}, nil
	}
	f, err := os.Open(cfg.in)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// createOut resolves -o to a writer ("-" = the configured stdout).
func (cfg *config) createOut() (io.Writer, func() error, error) {
	if cfg.out == "-" {
		return cfg.stdout, func() error { return nil }, nil
	}
	f, err := os.Create(cfg.out)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// removeOut deletes the -o file after a failed run so no partial artifact
// survives; a no-op for stdout.
func (cfg *config) removeOut() {
	if cfg.out != "" && cfg.out != "-" {
		os.Remove(cfg.out)
	}
}

// writeOut hands a buffered writer on -o to emit and enforces the
// no-partial-artifact protocol shared by every output path: flush and
// close on success, remove the file on any failure (a truncated container
// or field must never survive looking like valid output).
func (cfg *config) writeOut(emit func(io.Writer) error) error {
	w, closeOut, err := cfg.createOut()
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	err = emit(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	if err != nil {
		cfg.removeOut()
	}
	return err
}

// status is where human-readable progress goes: stdout normally, stderr
// when stdout carries payload bytes.
func (cfg *config) status() io.Writer {
	if cfg.out == "-" {
		return cfg.stderr
	}
	return cfg.stdout
}

func run(cfg config) error {
	if cfg.in == "" {
		return fmt.Errorf("missing -i input file")
	}
	if cfg.stderr == nil {
		cfg.stderr = os.Stderr
	}
	if cfg.region != "" && !cfg.decompress {
		return fmt.Errorf("-region only applies to decompression (-d)")
	}
	p := fzmod.NewPlatform()

	switch {
	case cfg.probe:
		return probe(cfg)
	case cfg.salvage:
		return salvageArtifact(cfg)
	case cfg.verifyArtifact:
		return verifyArtifact(cfg)
	case cfg.compress:
		if cfg.stream {
			return compressStream(cfg, p)
		}
		return compressInMemory(cfg, p)
	case cfg.decompress:
		return decompress(cfg, p)
	}
	return fmt.Errorf("one of -z, -d, -probe, -verify, -salvage is required")
}

// openFetcher resolves -i to a random-access ChunkFetcher: an HTTP range
// fetcher for http(s) URLs, a file fetcher otherwise. The cleanup closes
// the file when there is one.
func openFetcher(in string) (fzmod.ChunkFetcher, bool, func(), error) {
	if in == "-" {
		return nil, false, nil, fmt.Errorf("random access needed; -i - (stdin) cannot seek")
	}
	if strings.HasPrefix(in, "http://") || strings.HasPrefix(in, "https://") {
		return fzmod.NewHTTPFetcher(in, nil), true, func() {}, nil
	}
	f, err := fzmod.NewFileFetcher(in)
	if err != nil {
		return nil, false, nil, err
	}
	cleanup := func() {}
	if c, ok := f.(io.Closer); ok {
		cleanup = func() { c.Close() }
	}
	return f, false, cleanup, nil
}

// verifyArtifact is the integrity audit: survey the whole artifact,
// report every chunk's verdict, and fail (nonzero exit) when any chunk
// is damaged or the container-level integrity facts do not hold.
func verifyArtifact(cfg config) error {
	fetcher, _, cleanup, err := openFetcher(cfg.in)
	if err != nil {
		return err
	}
	defer cleanup()
	s, err := fzmod.SurveyArtifact(fetcher)
	if err != nil {
		return err
	}
	w := cfg.stdout
	fmt.Fprintf(w, "pipeline:  %s (%s)\ndims:      %v\nchunks:    %d\n",
		s.Header.Pipeline, s.Flavor, s.Header.Dims, len(s.Chunks))
	switch {
	case s.Root == nil:
		fmt.Fprintf(w, "merkle:    none (format v1 or monolithic; CRC32 only)\n")
	case s.RootVerified:
		fmt.Fprintf(w, "merkle:    root verified (%x…)\n", s.Root[:8])
	default:
		fmt.Fprintf(w, "merkle:    ROOT MISMATCH (index tampered or damaged)\n")
	}
	var damaged []string
	for _, sc := range s.Chunks {
		if sc.State == fzmod.ChunkIntact {
			fmt.Fprintf(w, "  chunk %-3d %s\n", sc.Index, sc.State)
			continue
		}
		fmt.Fprintf(w, "  chunk %-3d %s: %s\n", sc.Index, sc.State, sc.Detail)
		damaged = append(damaged, fmt.Sprintf("chunk %d %s (%s)", sc.Index, sc.State, sc.Detail))
	}
	if s.Truncated {
		fmt.Fprintf(w, "artifact:  TRUNCATED\n")
	}
	if s.Damaged() {
		if len(damaged) == 0 {
			return fmt.Errorf("artifact damaged: container-level integrity failure (truncation or root mismatch)")
		}
		return fmt.Errorf("artifact damaged: %s", strings.Join(damaged, "; "))
	}
	fmt.Fprintf(w, "artifact:  OK (%d/%d chunks intact)\n", s.Intact(), len(s.Chunks))
	return nil
}

// salvageArtifact rebuilds a valid chunked container from every intact
// chunk of a damaged artifact. Succeeds (exit 0) whenever at least one
// chunk was recoverable; the report says what was lost.
func salvageArtifact(cfg config) error {
	fetcher, _, cleanup, err := openFetcher(cfg.in)
	if err != nil {
		return err
	}
	defer cleanup()
	blob, s, err := fzmod.SalvageChunked(fetcher)
	if err != nil {
		return err
	}
	if cfg.out == "" {
		cfg.out = cfg.in + ".salvaged"
	}
	if err := cfg.writeOut(func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	}); err != nil {
		return err
	}
	st := cfg.status()
	fmt.Fprintf(st, "salvaged %d/%d chunks of %s artifact → %s (%d bytes)\n",
		s.Intact(), len(s.Chunks), s.Flavor, cfg.out, len(blob))
	for _, sc := range s.Chunks {
		if sc.State != fzmod.ChunkIntact {
			fmt.Fprintf(st, "  lost chunk %d (%s: %s)\n", sc.Index, sc.State, sc.Detail)
		}
	}
	return nil
}

func compressInMemory(cfg config, p *fzmod.Platform) error {
	if cfg.in == "-" {
		return fmt.Errorf("-i - requires -stream (in-memory compression needs a file)")
	}
	blob, err := os.ReadFile(cfg.in)
	if err != nil {
		return err
	}
	dims, err := grid.ParseDims(cfg.dims)
	if err != nil {
		return err
	}
	if len(blob)%4 != 0 {
		return fmt.Errorf("input is not a float32 stream (%d bytes)", len(blob))
	}
	data := device.BytesF32(blob)
	if dims.N() != len(data) {
		return fmt.Errorf("dims %v describe %d values, file has %d", dims, dims.N(), len(data))
	}
	bound, err := preprocess.ParseBound(cfg.eb, cfg.mode)
	if err != nil {
		return err
	}
	pl, err := resolvePipeline(cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	cblob, report, err := pl.CompressChunkedReport(p, data, dims, bound, core.Opts{ChunkElems: cfg.chunk, Workers: cfg.workers})
	compSec := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	if cfg.out == "" {
		cfg.out = cfg.in + ".fz"
	}
	if err := cfg.writeOut(func(w io.Writer) error {
		_, err := w.Write(cblob)
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(cfg.status(), "%s: %d → %d bytes  CR %.2f  bitrate %.3f b/v  %.3f GB/s\n",
		pl.Name(), len(blob), len(cblob),
		metrics.CompressionRatio(len(blob), len(cblob)),
		metrics.Bitrate(dims.N(), len(cblob)),
		metrics.Throughput(len(blob), compSec))
	if cfg.verbose {
		printReport(cfg.status(), "compress", report)
	}
	if cfg.verify {
		dec, _, err := pl.Decompress(p, cblob)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		q, err := fzmod.Evaluate(p, data, dec)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.status(), "verify: PSNR %.2f dB, max abs err %g, NRMSE %.3g\n", q.PSNR, q.MaxAbsErr, q.NRMSE)
	}
	return nil
}

// compressStream is the out-of-core write path: input read chunk by chunk,
// at most -window chunks in flight, memory O(window).
func compressStream(cfg config, p *fzmod.Platform) error {
	dims, err := grid.ParseDims(cfg.dims)
	if err != nil {
		return err
	}
	bound, err := preprocess.ParseBound(cfg.eb, cfg.mode)
	if err != nil {
		return err
	}
	pl, err := resolvePipeline(cfg)
	if err != nil {
		return err
	}
	if cfg.in != "-" {
		// The stream write reads exactly dims-many values; on a regular file
		// a size mismatch means the declared geometry is wrong, and
		// proceeding would silently truncate (or fail partway through) —
		// reject it up front exactly like the in-memory path does.
		fi, err := os.Stat(cfg.in)
		if err != nil {
			return err
		}
		if want := int64(4) * int64(dims.N()); fi.Size() != want {
			return fmt.Errorf("dims %v describe %d bytes, file has %d", dims, want, fi.Size())
		}
	}
	r, closeIn, err := cfg.openIn()
	if err != nil {
		return err
	}
	defer closeIn()
	if cfg.out == "" {
		if cfg.in == "-" {
			cfg.out = "-"
		} else {
			cfg.out = cfg.in + ".fzs"
		}
	}
	opts := core.StreamOpts{ChunkElems: cfg.chunk, Window: cfg.window, Workers: cfg.workers}
	var written int64
	t0 := time.Now()
	if err := cfg.writeOut(func(w io.Writer) error {
		var werr error
		written, werr = fzmod.CompressStream(p, pl, bufio.NewReaderSize(r, 1<<20), dims, bound, w, opts)
		return werr
	}); err != nil {
		return err
	}
	sec := time.Since(t0).Seconds()
	inBytes := 4 * dims.N()
	fmt.Fprintf(cfg.status(), "%s (stream): %d → %d bytes  CR %.2f  bitrate %.3f b/v  %.3f GB/s\n",
		pl.Name(), inBytes, written,
		metrics.CompressionRatio(inBytes, int(written)),
		metrics.Bitrate(dims.N(), int(written)),
		metrics.Throughput(inBytes, sec))
	return nil
}

func decompress(cfg config, p *fzmod.Platform) error {
	if cfg.region != "" {
		return decompressRegion(cfg, p)
	}
	r, closeIn, err := cfg.openIn()
	if err != nil {
		return err
	}
	defer closeIn()
	br := bufio.NewReaderSize(r, 1<<20)
	magic, err := br.Peek(4)
	if err != nil {
		return fmt.Errorf("reading container magic: %w", err)
	}

	out := cfg.out
	if out == "" {
		if cfg.in == "-" {
			out = "-"
		} else {
			out = strings.TrimSuffix(strings.TrimSuffix(cfg.in, ".fzs"), ".fz") + ".out.f32"
		}
	}

	if fzio.IsStream(magic) {
		// Out-of-core read path: at most -window chunks in flight.
		cfg.out = out
		opts := core.StreamOpts{Window: cfg.window, Workers: cfg.workers}
		var dims grid.Dims
		t0 := time.Now()
		if err := cfg.writeOut(func(w io.Writer) error {
			var err error
			dims, err = fzmod.DecompressStream(p, br, w, opts)
			return err
		}); err != nil {
			return err
		}
		fmt.Fprintf(cfg.status(), "%v: %d values (stream)  %.3f GB/s → %s\n", dims, dims.N(),
			metrics.Throughput(4*dims.N(), time.Since(t0).Seconds()), out)
		return nil
	}

	blob, err := io.ReadAll(br)
	if err != nil {
		return err
	}
	t0 := time.Now()
	data, dims, report, err := fzmod.Decompress(context.Background(), p, blob, fzmod.Opts{Workers: cfg.workers})
	decSec := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	cfg.out = out
	if err := cfg.writeOut(func(w io.Writer) error {
		_, err := w.Write(device.F32Bytes(data))
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(cfg.status(), "%v: %d values  %.3f GB/s → %s\n", dims, dims.N(),
		metrics.Throughput(4*dims.N(), decSec), out)
	if cfg.verbose && report != nil {
		printReport(cfg.status(), "decompress", report)
	}
	return nil
}

// decompressRegion is the random-access read path: the container index is
// fetched from a seekable source (local file or HTTP range requests), the
// slab chunks intersecting -region are decoded, and only the selected
// subvolume is written out.
func decompressRegion(cfg config, p *fzmod.Platform) error {
	fetcher, isHTTP, cleanup, err := openFetcher(cfg.in)
	if err != nil {
		return err
	}
	defer cleanup()
	region, err := fzmod.OpenRegion(p, fetcher, fzmod.RegionOpts{Workers: cfg.workers})
	if err != nil {
		return err
	}
	sel, err := core.ParseRegionSel(cfg.region, region.Dims())
	if err != nil {
		return err
	}

	t0 := time.Now()
	data, report, err := region.ReadReport(sel)
	sec := time.Since(t0).Seconds()
	if err != nil {
		return err
	}

	out := cfg.out
	if out == "" {
		name := cfg.in
		if isHTTP {
			name = name[strings.LastIndexByte(name, '/')+1:]
			if name == "" {
				name = "remote.fz"
			}
		}
		out = strings.TrimSuffix(strings.TrimSuffix(name, ".fzs"), ".fz") + ".region.f32"
	}
	cfg.out = out
	if err := cfg.writeOut(func(w io.Writer) error {
		_, err := w.Write(device.F32Bytes(data))
		return err
	}); err != nil {
		return err
	}
	rs := report.Region
	fmt.Fprintf(cfg.status(), "region %s of %v: %d values (%d/%d chunks decoded)  %.3f GB/s → %s\n",
		sel, region.Dims(), len(data), rs.Decoded, rs.Chunks,
		metrics.Throughput(4*len(data), sec), out)
	if cfg.verbose {
		fmt.Fprintf(cfg.status(), "  fetched %d payload bytes, %d cache hits, %d leaf hashes verified\n",
			rs.PayloadBytes, rs.CacheHits, rs.ProofVerified)
	}
	return nil
}

func probe(cfg config) error {
	r, closeIn, err := cfg.openIn()
	if err != nil {
		return err
	}
	defer closeIn()
	br := bufio.NewReaderSize(r, 1<<20)
	magic, err := br.Peek(4)
	if err != nil {
		return fmt.Errorf("reading container magic: %w", err)
	}
	w := cfg.stdout

	if fzio.IsStream(magic) {
		sr, err := fzio.NewStreamReader(br)
		if err != nil {
			return err
		}
		h := sr.Header()
		fmt.Fprintf(w, "pipeline:  %s (stream)\ndims:      %v\nabs eb:    %g\nrel eb:    %g\nnominal:   %d planes/chunk\n",
			h.Pipeline, h.Dims, h.EB, h.RelEB, h.Planes)
		total := 0
		var buf []byte
		for i := 0; ; i++ {
			payload, planes, err := sr.Next(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  chunk %-3d length %-9d planes %d\n", i, len(payload), planes)
			total += len(payload)
			buf = payload
		}
		fmt.Fprintf(w, "chunks:    %d\npayload:   %d bytes (trailer verified)\n", sr.NumChunks(), total)
		return nil
	}

	blob, err := io.ReadAll(br)
	if err != nil {
		return err
	}
	if fzio.IsChunked(blob) {
		cc, err := fzio.UnmarshalChunked(blob)
		if err != nil {
			return err
		}
		total := 0
		for _, ref := range cc.Chunks {
			total += ref.Length
		}
		fmt.Fprintf(w, "pipeline:  %s (chunked)\ndims:      %v\nabs eb:    %g\nrel eb:    %g\nchunks:    %d (%d planes/chunk nominal)\npayload:   %d bytes\n",
			cc.Header.Pipeline, cc.Header.Dims, cc.Header.EB, cc.Header.RelEB,
			cc.NumChunks(), cc.Header.Planes, total)
		for i, ref := range cc.Chunks {
			fmt.Fprintf(w, "  chunk %-3d offset %-9d length %-9d planes %d\n", i, ref.Offset, ref.Length, ref.Planes)
		}
		return nil
	}
	c, err := fzio.Unmarshal(blob)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pipeline:  %s\ndims:      %v\nabs eb:    %g\nrel eb:    %g\nsegments:  %s\npayload:   %d bytes\n",
		c.Header.Pipeline, c.Header.Dims, c.Header.EB, c.Header.RelEB,
		strings.Join(c.Names(), ", "), c.Size())
	return nil
}

// resolvePipeline picks the preset and attaches the secondary encoder
// when requested.
func resolvePipeline(cfg config) (*core.Pipeline, error) {
	pl, err := core.PresetByName(cfg.pipeline)
	if err != nil {
		return nil, err
	}
	if cfg.secondary && pl.Sec == nil {
		pl = fzmod.WithZstdSlot(pl)
	}
	return pl, nil
}

// printReport summarizes an executor report: graph shape, observed stage
// overlap, worker slots used, and buffer-pool reuse.
func printReport(w io.Writer, phase string, r *core.ExecReport) {
	slots := 0
	for _, t := range r.Trace {
		slots = max(slots, t.Worker+1)
	}
	fmt.Fprintf(w, "%s executor: %d tasks, critical path %d, overlapped %v, worker slots used %d\n",
		phase, r.Tasks, r.CriticalPath, r.Overlapped(), slots)
	fmt.Fprintf(w, "  buffer pool: %d gets, %d hits (%.0f%% hit rate)\n",
		r.Pool.Gets, r.Pool.Hits, 100*r.Pool.HitRate())
}
