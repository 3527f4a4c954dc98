package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

// This file is the chaos suite: region reads over a store that fails or
// delays chosen fetches, concurrent readers sharing one SlabCache
// through the single-flight protocol, and the pool-balance / bit-identity
// invariants that must hold under every failure. A read asks its fetcher
// for each chunk exactly once and trusts only the CRC and leaf-hash checks.
// Run under -race: the flight map, the LRU and the per-read accounting
// are exactly the shared mutable state the detector exists for.

// chaosContainer compresses a deterministic field into an 8-chunk FZMC
// container and returns it with its fault-free full decompression.
func chaosContainer(t *testing.T) ([]byte, []float32, grid.Dims) {
	t.Helper()
	dims := grid.D3(24, 20, 32)
	data := sdrbench.GenHURR(dims, 31)
	blob, _, err := NewDefault().CompressChunkedReport(tp, data, dims, preprocess.RelBound(1e-4),
		ChunkOpts{ChunkElems: dims.PlaneElems() * 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	full, _, _, err := DecompressReportWithOpts(tp, blob, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	return blob, full, dims
}

// flakyFetcher serves a blob and fails or delays the ReadRange calls its
// plan picks. plan sees each call's 1-based sequence number and offset;
// a nil plan serves every call cleanly.
type flakyFetcher struct {
	inner fzio.ChunkFetcher
	plan  func(call, off int64) (time.Duration, error)
	calls atomic.Int64
}

func (f *flakyFetcher) ReadRange(off int64, n int) ([]byte, error) {
	call := f.calls.Add(1)
	if f.plan != nil {
		delay, err := f.plan(call, off)
		time.Sleep(delay)
		if err != nil {
			return nil, fmt.Errorf("flaky: call %d at %d: %w", call, off, err)
		}
	}
	return f.inner.ReadRange(off, n)
}

func (f *flakyFetcher) Size() (int64, error) { return f.inner.Size() }

// errDeadStore is the failure the chaos stores inject.
var errDeadStore = errors.New("dead store")

// TestChaosRegionBitIdentical: with 30% or 50% of fetches delayed, so
// parallel chunk fetches complete out of order, every region read over
// every selection shape returns bytes identical to the full
// decompression, asks the store exactly once per decoded chunk, and
// checks every fetched payload's leaf hash.
func TestChaosRegionBitIdentical(t *testing.T) {
	blob, full, dims := chaosContainer(t)
	for _, tc := range []struct {
		name  string
		every int64 // delay calls whose number mod 10 is below this
	}{
		{"faults-30", 3},
		{"faults-50-proofs", 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slow := &flakyFetcher{inner: fzio.NewBytesFetcher(blob), plan: func(call, _ int64) (time.Duration, error) {
				if call%10 < tc.every {
					return time.Duration(call%4) * time.Millisecond, nil
				}
				return 0, nil
			}}
			reg, err := OpenRegion(tp, slow, RegionOpts{Workers: 4})
			if err != nil {
				t.Fatalf("OpenRegion over slow store: %v", err)
			}
			for _, sel := range regionSels(dims) {
				before := slow.calls.Load()
				got, rep, err := reg.ReadReport(sel)
				if err != nil {
					t.Fatalf("read %v over slow store: %v", sel, err)
				}
				want := naiveExtract(full, dims, sel)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("read %v: byte-diverged at element %d", sel, i)
					}
				}
				if calls := slow.calls.Load() - before; calls != int64(rep.Region.Decoded) {
					t.Fatalf("read %v issued %d fetches for %d decoded chunks", sel, calls, rep.Region.Decoded)
				}
				if rep.Region.ProofVerified != int64(rep.Region.Decoded) {
					t.Fatalf("read %v checked %d leaf hashes for %d decoded chunks", sel, rep.Region.ProofVerified, rep.Region.Decoded)
				}
			}
		})
	}
}

// TestChaosSingleFlightLoad is the concurrent-reader load test: 16
// goroutines share one SlabCache over one slow fetcher, and the
// single-flight protocol must hold the fetch count to exactly one per
// distinct slab, every reader bit-identical to the full decode.
func TestChaosSingleFlightLoad(t *testing.T) {
	blob, full, dims := chaosContainer(t)
	// Every fetch takes a millisecond, so the readers' flights overlap.
	slow := &flakyFetcher{inner: fzio.NewBytesFetcher(blob), plan: func(_, _ int64) (time.Duration, error) {
		return time.Millisecond, nil
	}}
	counting := fzio.NewCountingFetcher(slow)
	cache := NewSlabCache(int64(len(full)) * 8)
	reg, err := OpenRegion(tp, counting, RegionOpts{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	counting.Reset() // drop the index fetch; count only slab traffic
	sel := FullRegion(dims)
	const readers = 16
	var wg sync.WaitGroup
	outs := make([][]float32, readers)
	stats := make([]RegionStats, readers)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, rep, err := reg.ReadReport(sel)
			outs[i], errs[i] = got, err
			if rep != nil && rep.Region != nil {
				stats[i] = *rep.Region
			}
		}(i)
	}
	wg.Wait()

	nChunks := reg.Index().NumChunks()
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		for j := range full {
			if outs[i][j] != full[j] {
				t.Fatalf("reader %d diverged from the full decode at element %d", i, j)
			}
		}
		if got := stats[i].Decoded + stats[i].CacheHits + stats[i].DedupHits; got != nChunks {
			t.Fatalf("reader %d accounting: decoded=%d + cacheHits=%d + dedupHits=%d != %d chunks",
				i, stats[i].Decoded, stats[i].CacheHits, stats[i].DedupHits, nChunks)
		}
	}
	// The single-flight guarantee: every distinct slab was fetched exactly
	// once, however the 16 readers interleaved.
	if counting.Reads() != int64(nChunks) {
		t.Fatalf("slab fetches = %d, want exactly %d (one per distinct slab)", counting.Reads(), nChunks)
	}
	var dedup int
	for i := range stats {
		dedup += stats[i].DedupHits
	}
	if int64(dedup) != cache.DedupHits() {
		t.Fatalf("per-read dedup sum %d != cache dedup counter %d", dedup, cache.DedupHits())
	}
	if cs := cache.Stats(); cs.Flights != 0 {
		t.Fatalf("%d flights still registered after all readers returned", cs.Flights)
	}
}

// TestChaosPoolBalancedAfterFailures: every failing read — a failed
// fetch, a CRC refusal — must leave the platform's scratch pool balanced
// (gets == puts), or the daemon would leak slabs under sustained
// failures. A failed fetch fails the read with the store's own error and
// is never asked for a second time.
func TestChaosPoolBalancedAfterFailures(t *testing.T) {
	blob, full, dims := chaosContainer(t)
	p := device.NewTestPlatform() // private platform: pool deltas are ours alone
	sel := FullRegion(dims)
	ix, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}

	// A store that fails every fetch of chunk 3.
	victim := int64(ix.Chunks[3].Offset)
	var victimCalls atomic.Int64
	failing := &flakyFetcher{inner: fzio.NewBytesFetcher(blob), plan: func(_, off int64) (time.Duration, error) {
		if off == victim {
			victimCalls.Add(1)
			return 0, errDeadStore
		}
		return 0, nil
	}}
	if _, _, err := readRegion(p, failing, sel, RegionOpts{Workers: 2}); !errors.Is(err, errDeadStore) {
		t.Fatalf("read over a failing store: got %v, want the store's error", err)
	}
	if n := victimCalls.Load(); n != 1 {
		t.Fatalf("failing chunk fetched %d times, want exactly 1", n)
	}

	// Corruption: the CRC check must refuse the bytes, never silently
	// decode them.
	corrupt := append([]byte(nil), blob...)
	corrupt[ix.Chunks[2].Offset+ix.Chunks[2].Length/2] ^= 0x10
	if _, _, err := readRegion(p, fzio.NewBytesFetcher(corrupt), sel, RegionOpts{Workers: 2}); !errors.Is(err, fzio.ErrCRCMismatch) {
		t.Fatalf("corrupted payload: got %v, want ErrCRCMismatch", err)
	}

	if st := p.ScratchPool().Stats(); st.Gets != st.Puts {
		t.Fatalf("scratch pool unbalanced after failed reads: gets=%d puts=%d", st.Gets, st.Puts)
	}

	// And after the failures, the same platform still serves a clean read.
	got, _, err := readRegion(p, fzio.NewBytesFetcher(blob), sel, RegionOpts{Workers: 2})
	if err != nil {
		t.Fatalf("clean read after failures: %v", err)
	}
	for i := range full {
		if got[i] != full[i] {
			t.Fatalf("post-failure read diverged at element %d", i)
		}
	}
}

// TestChaosLeaderFailurePromotesFollower: when the reader leading a
// flight fails, a waiting reader must claim the flight and decode the
// slab itself rather than inherit the leader's error.
func TestChaosLeaderFailurePromotesFollower(t *testing.T) {
	blob, full, dims := chaosContainer(t)
	// A store that — once armed, after OpenRegion has fetched the index —
	// fails the FIRST fetch of every offset with a 404, then serves
	// cleanly.
	var armed atomic.Bool
	var mu sync.Mutex
	seen := make(map[int64]bool)
	fickle := &flakyFetcher{inner: fzio.NewBytesFetcher(blob), plan: func(_, off int64) (time.Duration, error) {
		if !armed.Load() {
			return 0, nil
		}
		mu.Lock()
		defer mu.Unlock()
		if seen[off] {
			return 0, nil
		}
		seen[off] = true
		return 0, &fzio.HTTPStatusError{Code: 404, Status: "404 Not Found"}
	}}
	cache := NewSlabCache(int64(len(full)) * 8)
	reg, err := OpenRegion(tp, fickle, RegionOpts{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	sel := RegionSel{X0: 0, X1: dims.X, Y0: 0, Y1: dims.Y, Z0: 0, Z1: 4} // chunk 0 only

	var wg sync.WaitGroup
	outs := make([][]float32, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], _, errs[i] = reg.ReadReport(sel)
		}(i)
	}
	wg.Wait()

	// Exactly one reader absorbs the injected 404; the other — follower
	// promoted after the leader's failure, or an independent second flight
	// — must succeed with exact bytes.
	failed, succeeded := 0, -1
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			if !strings.Contains(errs[i].Error(), "404") {
				t.Fatalf("reader %d failed with %v, want the injected 404", i, errs[i])
			}
			failed++
		} else {
			succeeded = i
		}
	}
	if failed != 1 || succeeded < 0 {
		t.Fatalf("want exactly one failed and one successful reader, got %d failures", failed)
	}
	want := naiveExtract(full, dims, sel)
	for i := range want {
		if outs[succeeded][i] != want[i] {
			t.Fatalf("surviving reader diverged at element %d", i)
		}
	}
	if cs := cache.Stats(); cs.Flights != 0 {
		t.Fatalf("%d abandoned flights after a leader failure", cs.Flights)
	}
}

// TestChaosProofCatchesCRCCollision is the adversarial acceptance
// criterion: a stored chunk tampered so its CRC32 is unchanged slips past
// the checksum, so the region read must refuse it at its leaf hash with
// ErrProofMismatch (not a CRC or decode error) — while a salvage pass
// over the same damaged artifact still recovers every untampered chunk
// bit-identically.
func TestChaosProofCatchesCRCCollision(t *testing.T) {
	blob, full, dims := chaosContainer(t)

	ix, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}
	victim := 3
	ref := ix.Chunks[victim]
	tampered := append([]byte(nil), blob...)
	if !fzio.CorruptPreservingCRC32(tampered[ref.Offset:ref.Offset+ref.Length], 41) {
		t.Fatal("could not build a CRC-preserving tamper")
	}

	_, _, err = readRegion(tp, fzio.NewBytesFetcher(tampered), FullRegion(dims), RegionOpts{Workers: 2})
	if err == nil {
		t.Fatal("CRC-colliding corruption decoded silently")
	}
	if !errors.Is(err, fzio.ErrProofMismatch) {
		t.Fatalf("got %v, want ErrProofMismatch (not a CRC or decode error)", err)
	}
	if errors.Is(err, fzio.ErrCRCMismatch) {
		t.Fatalf("region read failed as a CRC mismatch: %v", err)
	}

	// The accounting side: a clean read counts one leaf-hash check per
	// decoded chunk.
	_, rep, err := readRegion(tp, fzio.NewBytesFetcher(blob), FullRegion(dims), RegionOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Region.ProofVerified != int64(rep.Region.Decoded) || rep.Region.ProofVerified == 0 {
		t.Fatalf("ProofVerified=%d, Decoded=%d: want one verification per decoded chunk",
			rep.Region.ProofVerified, rep.Region.Decoded)
	}

	// Salvage the tampered artifact: one chunk is lost, the rest come
	// back bit-identical.
	salvaged, survey, err := fzio.SalvageChunked(fzio.NewBytesFetcher(tampered))
	if err != nil {
		t.Fatalf("SalvageChunked: %v", err)
	}
	if survey.Intact() != len(ix.Chunks)-1 || survey.Chunks[victim].State != fzio.ChunkCorrupt {
		t.Fatalf("survey = %d intact, victim %q", survey.Intact(), survey.Chunks[victim].State)
	}
	out, mask, err := DecompressSalvageCtx(context.Background(), tp, fzio.NewBytesFetcher(tampered), DecompressOpts{})
	if err != nil {
		t.Fatalf("DecompressSalvageCtx: %v", err)
	}
	if !mask.Any() {
		t.Fatal("damage mask empty for a tampered artifact")
	}
	plane := dims.PlaneElems()
	lo := 0
	for i, ref := range ix.Chunks {
		for z := lo; z < lo+ref.Planes; z++ {
			for e := z * plane; e < (z+1)*plane; e++ {
				if i == victim {
					if !mask.Planes[z] || out[e] != 0 {
						t.Fatalf("damaged plane %d not zero-masked", z)
					}
				} else {
					if mask.Planes[z] {
						t.Fatalf("intact plane %d flagged damaged", z)
					}
					if out[e] != full[e] {
						t.Fatalf("salvage-read diverged at element %d", e)
					}
				}
			}
		}
		lo += ref.Planes
	}
	// The rebuilt container decodes end to end and matches the surviving
	// planes of the original decode exactly.
	recovered, _, _, err := DecompressReportWithOpts(tp, salvaged, Opts{})
	if err != nil {
		t.Fatalf("decoding the salvaged container: %v", err)
	}
	wantElems := (dims.SlowExtent() - ix.Chunks[victim].Planes) * plane
	if len(recovered) != wantElems {
		t.Fatalf("salvaged decode has %d elements, want %d", len(recovered), wantElems)
	}
}
