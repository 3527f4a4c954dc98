package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

// naiveExtract slices a selection out of a fully decoded field with plain
// nested loops — the independent oracle region reads are compared against.
func naiveExtract(full []float32, dims grid.Dims, sel RegionSel) []float32 {
	od := sel.Dims()
	out := make([]float32, od.N())
	for z := sel.Z0; z < sel.Z1; z++ {
		for y := sel.Y0; y < sel.Y1; y++ {
			for x := sel.X0; x < sel.X1; x++ {
				out[od.Idx(x-sel.X0, y-sel.Y0, z-sel.Z0)] = full[dims.Idx(x, y, z)]
			}
		}
	}
	return out
}

// readRegion opens the container behind f and reads one selection from it.
func readRegion(p *device.Platform, f fzio.ChunkFetcher, sel RegionSel, opts RegionOpts) ([]float32, *ExecReport, error) {
	r, err := OpenRegion(p, f, opts)
	if err != nil {
		return nil, nil, err
	}
	return r.ReadReport(sel)
}

// streamFromChunked rewrites an FZMC container as its FZMS serialization;
// per-chunk payloads are bit-identical, only the framing differs.
func streamFromChunked(t *testing.T, blob []byte) []byte {
	t.Helper()
	cc, err := fzio.UnmarshalChunked(blob)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw, err := fzio.NewStreamWriter(&buf, cc.Header)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cc.NumChunks(); i++ {
		payload, err := cc.Chunk(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteChunk(payload, cc.Chunks[i].Planes); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// regionSels covers the shapes the acceptance criteria name: chunk-interior,
// chunk-boundary-crossing, multi-chunk, full-field, and thin windows.
// Chunks in these tests cover 8 planes each.
func regionSels(dims grid.Dims) []RegionSel {
	return []RegionSel{
		{X0: 2, X1: dims.X - 3, Y0: 1, Y1: dims.Y - 1, Z0: 2, Z1: 6}, // interior of chunk 0
		{X0: 0, X1: dims.X, Y0: 0, Y1: dims.Y, Z0: 6, Z1: 10},        // crosses the chunk 0/1 boundary
		{X0: 3, X1: 9, Y0: 4, Y1: 12, Z0: 4, Z1: dims.Z - 4},         // multi-chunk, thin xy window
		FullRegion(dims), // every chunk
		{X0: 0, X1: 1, Y0: 0, Y1: 1, Z0: dims.Z - 1, Z1: dims.Z},             // single element, last plane
		{X0: 0, X1: dims.X, Y0: dims.Y / 2, Y1: dims.Y/2 + 1, Z0: 7, Z1: 25}, // single-y slice across chunks
	}
}

// TestRegionMatchesFullDecompress is the acceptance criterion: every
// preset × FZMC/FZMS, a region read must be bit-identical to slicing
// the same selection out of a full Decompress.
func TestRegionMatchesFullDecompress(t *testing.T) {
	dims := grid.D3(24, 20, 32)
	data := sdrbench.GenHURR(dims, 31)
	eb := preprocess.RelBound(1e-4)
	for _, pl := range Presets() {
		blob, _, err := pl.CompressChunkedReport(tp, data, dims, eb, ChunkOpts{ChunkElems: dims.PlaneElems() * 8, Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		full, _, _, err := DecompressReportWithOpts(tp, blob, Opts{})
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		flavors := map[string][]byte{"fzmc": blob, "fzms": streamFromChunked(t, blob)}
		for flavor, artifact := range flavors {
			r, err := OpenRegion(tp, fzio.NewBytesFetcher(artifact), RegionOpts{Workers: 3})
			if err != nil {
				t.Fatalf("%s/%s: OpenRegion: %v", pl.Name(), flavor, err)
			}
			if r.Dims() != dims {
				t.Fatalf("%s/%s: Dims = %v, want %v", pl.Name(), flavor, r.Dims(), dims)
			}
			for _, sel := range regionSels(dims) {
				got, _, err := r.ReadReport(sel)
				if err != nil {
					t.Fatalf("%s/%s sel %v: %v", pl.Name(), flavor, sel, err)
				}
				want := naiveExtract(full, dims, sel)
				if len(got) != len(want) {
					t.Fatalf("%s/%s sel %v: %d values, want %d", pl.Name(), flavor, sel, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s sel %v: value %d differs: %v vs %v",
							pl.Name(), flavor, sel, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// Region reads over a monolithic FZMD artifact go through the same planner
// (one whole-field chunk).
func TestRegionMonolithic(t *testing.T) {
	dims := grid.D3(16, 12, 10)
	data := sdrbench.GenHURR(dims, 7)
	pl := NewDefault()
	blob, err := pl.Compress(tp, data, dims, preprocess.RelBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	full, _, _, err := DecompressReportWithOpts(tp, blob, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	sel := RegionSel{X0: 1, X1: 9, Y0: 2, Y1: 11, Z0: 3, Z1: 7}
	got, _, err := readRegion(tp, fzio.NewBytesFetcher(blob), sel, RegionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveExtract(full, dims, sel)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d differs", i)
		}
	}
}

// hugeMonolith poses as an FZMD artifact of 2^30+64 bytes: its prefix is
// a real FZMD container, the rest reads as zeros. Any ReadRange long
// enough to fetch the whole artifact fails the test instead of
// allocating it.
type hugeMonolith struct {
	t      *testing.T
	prefix []byte
}

func (h hugeMonolith) Size() (int64, error) { return 1<<30 + 64, nil }

func (h hugeMonolith) ReadRange(off int64, n int) ([]byte, error) {
	if n > fzio.MaxMonolithicFetchBytes {
		h.t.Errorf("ReadRange(%d, %d) fetches past the monolithic fetch limit", off, n)
		return nil, fmt.Errorf("oversized fetch")
	}
	out := make([]byte, n)
	if off < int64(len(h.prefix)) {
		copy(out, h.prefix[off:])
	}
	return out, nil
}

// An FZMD artifact over 1 GiB indexes as one chunk (so in-memory
// Decompress and probe read it), but a region read refuses to fetch it
// whole through a fetcher.
func TestRegionMonolithicOverFetchLimit(t *testing.T) {
	dims := grid.D3(16, 12, 10)
	blob, err := NewDefault().Compress(tp, sdrbench.GenHURR(dims, 7), dims, preprocess.RelBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	f := hugeMonolith{t: t, prefix: blob}
	ix, err := fzio.FetchIndex(f)
	if err != nil {
		t.Fatalf("FetchIndex over a 1 GiB+ FZMD: %v", err)
	}
	if ix.Flavor != fzio.FlavorMonolithic || len(ix.Chunks) != 1 || ix.Chunks[0].Length != 1<<30+64 {
		t.Fatalf("index = %s with %d chunks, want one monolithic chunk of the whole artifact", ix.Flavor, len(ix.Chunks))
	}
	reg, err := OpenRegion(tp, f, RegionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.ReadReport(FullRegion(dims)); err == nil || !strings.Contains(err.Error(), "fetch limit") {
		t.Fatalf("region read of a 1 GiB+ FZMD: got %v, want the fetch-limit refusal", err)
	}
}

// 2-D fields partition along y; the window copy must handle the rank-2
// slab-local coordinates.
func TestRegion2D(t *testing.T) {
	dims := grid.D2(40, 48)
	data := sdrbench.GenHURR(dims, 13)
	pl := NewDefault()
	blob, _, err := pl.CompressChunkedReport(tp, data, dims, preprocess.RelBound(1e-4),
		ChunkOpts{ChunkElems: dims.PlaneElems() * 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, _, _, err := DecompressReportWithOpts(tp, blob, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []RegionSel{
		{X0: 3, X1: 30, Y0: 2, Y1: 7, Z0: 0, Z1: 1},  // interior of slab 0
		{X0: 0, X1: 40, Y0: 6, Y1: 20, Z0: 0, Z1: 1}, // crosses slab boundaries
		FullRegion(dims),
	} {
		got, _, err := readRegion(tp, fzio.NewBytesFetcher(blob), sel, RegionOpts{})
		if err != nil {
			t.Fatalf("sel %v: %v", sel, err)
		}
		want := naiveExtract(full, dims, sel)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sel %v: value %d differs", sel, i)
			}
		}
	}
}

// TestRegionWindowByRank holds both ways the read executor lands a chunk
// — straight into its window of the output (whole planes, no cache) or
// through a slab and a window copy (partial planes, or a cache) — to the
// full decode, on 1-, 2- and 3-D fields.
func TestRegionWindowByRank(t *testing.T) {
	for _, dims := range []grid.Dims{grid.D1(3000), grid.D2(40, 48), grid.D3(12, 10, 20)} {
		data := sdrbench.GenHURR(dims, 5)
		blob, _, err := NewDefault().CompressChunkedReport(tp, data, dims, preprocess.RelBound(1e-4),
			ChunkOpts{ChunkElems: dims.PlaneElems() * (dims.SlowExtent() / 5)})
		if err != nil {
			t.Fatal(err)
		}
		full, _, _, err := DecompressReportWithOpts(tp, blob, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		n := dims.SlowExtent()
		whole, part := FullRegion(dims), FullRegion(dims)
		switch dims.Rank() {
		case 3:
			whole.Z0, whole.Z1 = n/5+1, n-2
			part.X0, part.Y1, part.Z0, part.Z1 = 1, dims.Y-1, 3, n/2
		case 2:
			whole.Y0, whole.Y1 = n/5+1, n-2
			part.X0, part.X1, part.Y0, part.Y1 = 2, dims.X-3, 3, n/2
		default:
			part.X0, part.X1 = n/5+1, n-2
		}
		for _, sel := range []RegionSel{FullRegion(dims), whole, part} {
			for _, cache := range []*SlabCache{nil, NewSlabCache(1 << 20)} {
				got, _, err := readRegion(tp, fzio.NewBytesFetcher(blob), sel, RegionOpts{Cache: cache})
				if err != nil {
					t.Fatalf("%v sel %v: %v", dims, sel, err)
				}
				want := naiveExtract(full, dims, sel)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v sel %v (cache %v): value %d differs", dims, sel, cache != nil, i)
					}
				}
			}
		}
	}
}

// TestRegionPartialFetch is the acceptance criterion on fetch economy: a
// selection inside 1 of 8 chunks must read at most 1/4 of the container
// bytes, and a repeated read must be served from the LRU cache.
func TestRegionPartialFetch(t *testing.T) {
	dims := grid.D3(48, 48, 64) // 8 chunks of 8 planes
	data := sdrbench.GenHURR(dims, 5)
	pl := NewDefault()
	blob, _, err := pl.CompressChunkedReport(tp, data, dims, preprocess.RelBound(1e-4),
		ChunkOpts{ChunkElems: dims.PlaneElems() * 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for flavor, artifact := range map[string][]byte{"fzmc": blob, "fzms": streamFromChunked(t, blob)} {
		cf := fzio.NewCountingFetcher(fzio.NewBytesFetcher(artifact))
		cache := NewSlabCache(64 << 20)
		r, err := OpenRegion(tp, cf, RegionOpts{Workers: 2, Cache: cache})
		if err != nil {
			t.Fatalf("%s: %v", flavor, err)
		}
		sel := RegionSel{X0: 4, X1: 40, Y0: 4, Y1: 40, Z0: 26, Z1: 30} // interior of chunk 3
		if _, report, err := r.ReadReport(sel); err != nil {
			t.Fatalf("%s: %v", flavor, err)
		} else if report.Region.Chunks != 1 || report.Region.Decoded != 1 {
			t.Fatalf("%s: region stats %+v, want 1 chunk decoded", flavor, report.Region)
		}
		if got, limit := cf.BytesRead(), int64(len(artifact))/4; got > limit {
			t.Errorf("%s: 1-of-8-chunk read fetched %d of %d container bytes (limit %d)",
				flavor, got, len(artifact), limit)
		}

		// Repeated read: served from the LRU, no further payload fetches.
		fetched := cf.BytesRead()
		_, report, err := r.ReadReport(sel)
		if err != nil {
			t.Fatalf("%s: repeat read: %v", flavor, err)
		}
		if report.Region.CacheHits != 1 || report.Region.Decoded != 0 {
			t.Fatalf("%s: repeat read stats %+v, want pure cache hit", flavor, report.Region)
		}
		if cf.BytesRead() != fetched {
			t.Errorf("%s: repeat read fetched %d more bytes", flavor, cf.BytesRead()-fetched)
		}
		if s := cache.Stats(); s.Hits != 1 || s.Entries != 1 {
			t.Errorf("%s: cache stats %+v, want 1 hit / 1 entry", flavor, s)
		}
	}
}

// Overlapping selections share cached slabs: a second read that straddles
// an already-decoded chunk decodes only the new ones.
func TestRegionCacheOverlap(t *testing.T) {
	dims := grid.D3(24, 20, 32)
	data := sdrbench.GenHURR(dims, 31)
	pl := NewDefault()
	blob, _, err := pl.CompressChunkedReport(tp, data, dims, preprocess.RelBound(1e-4),
		ChunkOpts{ChunkElems: dims.PlaneElems() * 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSlabCache(64 << 20)
	r, err := OpenRegion(tp, fzio.NewBytesFetcher(blob), RegionOpts{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if _, report, err := r.ReadReport(RegionSel{X0: 0, X1: 24, Y0: 0, Y1: 20, Z0: 0, Z1: 10}); err != nil {
		t.Fatal(err)
	} else if report.Region.Decoded != 2 {
		t.Fatalf("first read decoded %d chunks, want 2", report.Region.Decoded)
	}
	_, report, err := r.ReadReport(RegionSel{X0: 0, X1: 24, Y0: 0, Y1: 20, Z0: 8, Z1: 20})
	if err != nil {
		t.Fatal(err)
	}
	if report.Region.CacheHits != 1 || report.Region.Decoded != 1 {
		t.Fatalf("overlap read stats %+v, want 1 hit + 1 decode", report.Region)
	}
	// A second Region over the same bytes shares the cache via content keys.
	r2, err := OpenRegion(tp, fzio.NewBytesFetcher(append([]byte(nil), blob...)), RegionOpts{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	_, report, err = r2.ReadReport(RegionSel{X0: 0, X1: 24, Y0: 0, Y1: 20, Z0: 0, Z1: 8})
	if err != nil {
		t.Fatal(err)
	}
	if report.Region.CacheHits != 1 || report.Region.Decoded != 0 {
		t.Fatalf("cross-Region read stats %+v, want pure cache hit", report.Region)
	}
}

func TestRegionSelValidation(t *testing.T) {
	dims := grid.D3(16, 12, 10)
	data := sdrbench.GenHURR(dims, 7)
	blob, err := NewDefault().Compress(tp, data, dims, preprocess.RelBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenRegion(tp, fzio.NewBytesFetcher(blob), RegionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []RegionSel{
		{X0: -1, X1: 4, Y0: 0, Y1: 1, Z0: 0, Z1: 1},   // negative lo
		{X0: 0, X1: 17, Y0: 0, Y1: 1, Z0: 0, Z1: 1},   // past the x extent
		{X0: 0, X1: 16, Y0: 5, Y1: 5, Z0: 0, Z1: 1},   // empty axis
		{X0: 4, X1: 2, Y0: 0, Y1: 1, Z0: 0, Z1: 1},    // inverted
		{X0: 0, X1: 16, Y0: 0, Y1: 12, Z0: 9, Z1: 12}, // past the z extent
		{}, // all-empty
	}
	for _, sel := range bad {
		if _, _, err := r.ReadReport(sel); err == nil {
			t.Errorf("selection %v accepted against dims %v", sel, dims)
		} else if !strings.Contains(err.Error(), "region") {
			t.Errorf("selection %v: unhelpful error %v", sel, err)
		}
	}
}

// limitedShortFetcher serves small (index-sized) ranges faithfully but
// under-delivers large (chunk payload) ranges — a misbehaving backend the
// read path must reject rather than decode garbage from.
type limitedShortFetcher struct{ inner fzio.ChunkFetcher }

func (s limitedShortFetcher) ReadRange(off int64, n int) ([]byte, error) {
	b, err := s.inner.ReadRange(off, n)
	if err != nil || n < 512 {
		return b, err
	}
	return b[:n/2], nil
}
func (s limitedShortFetcher) Size() (int64, error) { return s.inner.Size() }

// truncatingFetcher serves index reads (which start at offset zero for
// FZMC) but drops the connection on payload reads past cut, as a truncated
// HTTP response mid-transfer would.
type truncatingFetcher struct {
	inner fzio.ChunkFetcher
	cut   int64
}

func (tf truncatingFetcher) ReadRange(off int64, n int) ([]byte, error) {
	if off >= tf.cut {
		return nil, fmt.Errorf("range response truncated: connection reset")
	}
	return tf.inner.ReadRange(off, n)
}
func (tf truncatingFetcher) Size() (int64, error) { return tf.inner.Size() }

func TestRegionCorruption(t *testing.T) {
	dims := grid.D3(24, 20, 32)
	data := sdrbench.GenHURR(dims, 31)
	pl := NewDefault()
	blob, _, err := pl.CompressChunkedReport(tp, data, dims, preprocess.RelBound(1e-4),
		ChunkOpts{ChunkElems: dims.PlaneElems() * 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sel := RegionSel{X0: 0, X1: 24, Y0: 0, Y1: 20, Z0: 0, Z1: 6} // chunk 0 only
	ix, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("crc flip in fetched chunk", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[ix.Chunks[0].Offset+ix.Chunks[0].Length/2] ^= 0x10
		_, _, err := readRegion(tp, fzio.NewBytesFetcher(bad), sel, RegionOpts{})
		if err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("flipped payload: got %v, want CRC error", err)
		}
	})
	t.Run("truncated range response", func(t *testing.T) {
		tf := truncatingFetcher{inner: fzio.NewBytesFetcher(blob), cut: int64(ix.Chunks[0].Offset)}
		_, _, err := readRegion(tp, tf, sel, RegionOpts{})
		if err == nil || !strings.Contains(err.Error(), "fetching chunk") {
			t.Fatalf("truncated response: got %v, want wrapped fetch error", err)
		}
	})
	t.Run("short reads", func(t *testing.T) {
		_, _, err := readRegion(tp, limitedShortFetcher{fzio.NewBytesFetcher(blob)}, sel, RegionOpts{})
		if err == nil {
			t.Fatal("short-read fetcher: silent acceptance")
		}
	})
	t.Run("truncated artifact", func(t *testing.T) {
		_, err := OpenRegion(tp, fzio.NewBytesFetcher(blob[:len(blob)-64]), RegionOpts{})
		if err == nil {
			t.Fatal("truncated artifact: index accepted")
		}
	})
}

// TestRegionTamperZeroOpts: a region read through a plain BytesFetcher,
// with no options set, refuses a chunk tampered so its CRC32 still
// matches — at that chunk's leaf hash, with ErrProofMismatch — while a
// selection that does not touch the chunk reads cleanly.
func TestRegionTamperZeroOpts(t *testing.T) {
	dims := grid.D3(24, 20, 32)
	data := sdrbench.GenHURR(dims, 31)
	fzmc, _, err := NewDefault().CompressChunkedReport(tp, data, dims, preprocess.RelBound(1e-4),
		ChunkOpts{ChunkElems: dims.PlaneElems() * 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	touched := RegionSel{X0: 0, X1: 24, Y0: 0, Y1: 20, Z0: 9, Z1: 12} // chunk 1 only
	clean := RegionSel{X0: 0, X1: 24, Y0: 0, Y1: 20, Z0: 0, Z1: 6}    // chunk 0 only
	for name, blob := range map[string][]byte{"FZMC": fzmc, "FZMS": streamFromChunked(t, fzmc)} {
		t.Run(name, func(t *testing.T) {
			ix, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob))
			if err != nil {
				t.Fatal(err)
			}
			ref := ix.Chunks[1]
			bad := bytes.Clone(blob)
			if !fzio.CorruptPreservingCRC32(bad[ref.Offset:ref.Offset+ref.Length], 7) {
				t.Fatal("could not build a CRC-preserving tamper")
			}
			_, _, err = readRegion(tp, fzio.NewBytesFetcher(bad), touched, RegionOpts{})
			if !errors.Is(err, fzio.ErrProofMismatch) {
				t.Fatalf("read of the tampered chunk: got %v, want ErrProofMismatch", err)
			}
			if _, _, err := readRegion(tp, fzio.NewBytesFetcher(bad), clean, RegionOpts{}); err != nil {
				t.Fatalf("read of an untouched chunk: %v", err)
			}
		})
	}
}

// Region reads honor the Workers budget (smoke: budget 1 must still be
// correct and strictly narrower than the platform).
func TestRegionWorkersBudget(t *testing.T) {
	dims := grid.D3(24, 20, 32)
	data := sdrbench.GenHURR(dims, 31)
	pl := NewDefault()
	blob, _, err := pl.CompressChunkedReport(tp, data, dims, preprocess.RelBound(1e-4),
		ChunkOpts{ChunkElems: dims.PlaneElems() * 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	full, _, _, err := DecompressReportWithOpts(tp, blob, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	sel := FullRegion(dims)
	got, _, err := readRegion(tp, fzio.NewBytesFetcher(blob), sel, RegionOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveExtract(full, dims, sel)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d differs under Workers=1", i)
		}
	}
}

func TestParseRegionSel(t *testing.T) {
	d := grid.D3(16, 12, 8)
	want := RegionSel{X0: 2, X1: 10, Y0: 4, Y1: 12, Z0: 7, Z1: 8}
	if got, err := ParseRegionSel(want.String(), d); err != nil || got != want {
		t.Errorf("ParseRegionSel(%q) = %v, %v", want.String(), got, err)
	}
	// Omitted trailing axes, and the empty selection, span the field.
	if got, err := ParseRegionSel(" 2 : 10 ", d); err != nil || got != (RegionSel{X0: 2, X1: 10, Y1: 12, Z1: 8}) {
		t.Errorf("one axis: %v, %v", got, err)
	}
	if got, err := ParseRegionSel("", d); err != nil || got != FullRegion(d) {
		t.Errorf("empty selection: %v, %v", got, err)
	}
	for _, bad := range []string{"0-4", "whole", "1:2,3", "0:1,0:1,0:1,0:1", ":"} {
		if _, err := ParseRegionSel(bad, d); err == nil {
			t.Errorf("ParseRegionSel(%q) accepted", bad)
		}
	}
}
