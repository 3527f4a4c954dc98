package core

import (
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

// This file is the chaos suite: region reads driven through the seeded
// fault injector (fzio.FaultFetcher) behind the retry layer
// (fzio.RetryFetcher), concurrent readers sharing one SlabCache through
// the single-flight protocol, and the pool-balance / bit-identity
// invariants that must hold under every injected failure. Run under
// -race: the flight map, the LRU and the per-read accounting are exactly
// the shared mutable state the detector exists for.

// chaosContainer compresses a deterministic field into an 8-chunk FZMC
// container and returns it with its fault-free full decompression.
func chaosContainer(t *testing.T) ([]byte, []float32, grid.Dims) {
	t.Helper()
	dims := grid.D3(24, 20, 32)
	data := sdrbench.GenHURR(dims, 31)
	blob, err := NewDefault().CompressChunked(tp, data, dims, preprocess.RelBound(1e-4),
		ChunkOpts{ChunkElems: dims.PlaneElems() * 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := Decompress(tp, blob)
	if err != nil {
		t.Fatal(err)
	}
	return blob, full, dims
}

// retryOver wraps a fetcher in the chaos suite's retry policy: enough
// attempts that a 30% per-attempt fault rate cannot plausibly exhaust
// them, and a no-op sleep so the suite spends its time decoding, not
// backing off.
func retryOver(f fzio.ChunkFetcher) *fzio.RetryFetcher {
	return fzio.NewRetryFetcher(f, fzio.RetryPolicy{
		MaxAttempts: 16,
		Sleep:       func(time.Duration) {},
	})
}

// TestChaosRegionBitIdentical is the acceptance criterion: with the
// injector at a 30% or 50% transient error rate plus truncation faults,
// every region read over every selection shape returns bytes identical to
// the fault-free full decompression, with the retries — and, on a
// proof-checked read, the Merkle verifications — visible in RegionStats.
func TestChaosRegionBitIdentical(t *testing.T) {
	blob, full, dims := chaosContainer(t)
	for _, tc := range []struct {
		name      string
		errorRate float64
		attempts  int // sized so the fault rate cannot plausibly exhaust them
		proofs    bool
	}{
		{"faults-30", 0.3, 16, false},
		{"faults-50-proofs", 0.5, 40, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faulty := fzio.NewFaultFetcher(fzio.NewBytesFetcher(blob), fzio.FaultConfig{
				Seed:         99,
				ErrorRate:    tc.errorRate,
				TruncateRate: 0.1,
			})
			retrying := fzio.NewRetryFetcher(faulty, fzio.RetryPolicy{
				MaxAttempts: tc.attempts,
				Sleep:       func(time.Duration) {},
			})
			reg, err := OpenRegion(tp, retrying, RegionOpts{Workers: 4, VerifyProofs: tc.proofs})
			if err != nil {
				t.Fatalf("OpenRegion over faulty store: %v", err)
			}
			var attempts, retries, proofs int64
			for _, sel := range regionSels(dims) {
				got, rep, err := reg.ReadReport(sel)
				if err != nil {
					t.Fatalf("read %v under faults: %v", sel, err)
				}
				want := naiveExtract(full, dims, sel)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("read %v: byte-diverged at element %d under faults", sel, i)
					}
				}
				attempts += rep.Region.FetchAttempts
				retries += rep.Region.FetchRetries
				proofs += rep.Region.ProofVerified
			}
			if retries == 0 {
				t.Fatalf("no retries recorded at a %g fault rate — RegionStats accounting broken", tc.errorRate)
			}
			if attempts <= retries {
				t.Fatalf("attempts=%d retries=%d: attempts must include every fetch's first try", attempts, retries)
			}
			if (proofs > 0) != tc.proofs {
				t.Fatalf("ProofVerified=%d with VerifyProofs=%v on a Merkle-rooted container", proofs, tc.proofs)
			}
			injected, _, truncated, _ := faulty.Injected()
			if injected == 0 || truncated == 0 {
				t.Fatalf("injector inert: %d errors, %d truncations", injected, truncated)
			}
		})
	}
}

// TestChaosSingleFlightLoad is the concurrent-reader load test: 16
// goroutines share one SlabCache over one flaky fetcher, and the
// single-flight protocol must hold the distinct-slab fetch count to
// exactly one successful fetch per distinct slab, every reader
// bit-identical to the serial decode.
func TestChaosSingleFlightLoad(t *testing.T) {
	blob, full, dims := chaosContainer(t)
	faulty := fzio.NewFaultFetcher(fzio.NewBytesFetcher(blob), fzio.FaultConfig{
		Seed:      7,
		ErrorRate: 0.3,
	})
	// The counter sits above the retry layer: it sees region-level
	// fetches (one per led flight), not per-attempt traffic.
	counting := fzio.NewCountingFetcher(retryOver(faulty))
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
				t.Fatalf("reader %d diverged from the serial decode at element %d", i, j)
			}
		}
		if got := stats[i].Decoded + stats[i].CacheHits + stats[i].DedupHits; got != nChunks {
			t.Fatalf("reader %d accounting: decoded=%d + cacheHits=%d + dedupHits=%d != %d chunks",
				i, stats[i].Decoded, stats[i].CacheHits, stats[i].DedupHits, nChunks)
		}
	}
	// The single-flight guarantee: every distinct slab was fetched through
	// the region path exactly once, however the 16 readers interleaved.
	if counting.Reads() != int64(nChunks) {
		t.Fatalf("region-level fetches = %d, want exactly %d (one per distinct slab)",
			counting.Reads(), nChunks)
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

// TestChaosPoolBalancedAfterFailures: every failing read — retries
// exhausted, CRC corruption — must leave the platform's scratch pool
// balanced (gets == puts), or the daemon would leak slabs under sustained
// faults.
func TestChaosPoolBalancedAfterFailures(t *testing.T) {
	blob, full, dims := chaosContainer(t)
	p := device.NewTestPlatform() // private platform: pool deltas are ours alone
	sel := FullRegion(dims)

	// Exhausted retries: 100% error rate, so every fetch fails after its
	// last attempt.
	dead := retryOver(fzio.NewFaultFetcher(fzio.NewBytesFetcher(blob), fzio.FaultConfig{ErrorRate: 1}))
	if _, err := DecompressRegion(p, dead, sel, RegionOpts{Workers: 2}); err == nil {
		t.Fatal("read over a dead store succeeded")
	} else if !fzio.Transient(err) {
		t.Fatalf("exhausted-retries error %v must stay transient-classified for callers", err)
	}

	// Corruption: the CRC check must refuse the bytes (never silently
	// decode) and must not be retried — the store's bytes are wrong.
	corrupting := fzio.NewFaultFetcher(fzio.NewBytesFetcher(blob), fzio.FaultConfig{Seed: 3, CorruptRate: 1})
	corrRetry := retryOver(corrupting)
	if _, err := DecompressRegion(p, corrRetry, sel, RegionOpts{Workers: 2}); err == nil {
		t.Fatal("corrupted payload decoded silently")
	} else if !errors.Is(err, fzio.ErrCRCMismatch) {
		t.Fatalf("corrupted payload: got %v, want ErrCRCMismatch", err)
	}
	if corrRetry.Retries() != 0 {
		t.Fatalf("CRC failures were retried %d times; the taxonomy forbids it", corrRetry.Retries())
	}

	if st := p.ScratchPool().Stats(); st.Gets != st.Puts {
		t.Fatalf("scratch pool unbalanced after injected failures: gets=%d puts=%d", st.Gets, st.Puts)
	}

	// And after the failures, the same platform still serves a clean read.
	got, err := DecompressRegion(p, fzio.NewBytesFetcher(blob), sel, RegionOpts{Workers: 2})
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
	// fails the FIRST fetch of every offset fatally (404, never retried),
	// then serves cleanly.
	inner := fzio.NewBytesFetcher(blob)
	var armed atomic.Bool
	var mu sync.Mutex
	seen := make(map[int64]bool)
	fickle := fetcherFunc{
		read: func(off int64, n int) ([]byte, error) {
			if armed.Load() {
				mu.Lock()
				first := !seen[off]
				seen[off] = true
				mu.Unlock()
				if first {
					return nil, fmt.Errorf("fickle: %w", &fzio.HTTPStatusError{Code: 404, Status: "404 Not Found"})
				}
			}
			return inner.ReadRange(off, n)
		},
		size: inner.Size,
	}
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
			outs[i], errs[i] = reg.Read(sel)
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
// criterion: corruption crafted to preserve each range's CRC32 slips
// past the checksum, so the proof-checked read must refuse it with
// ErrProofMismatch (not a CRC or decode error), without retries — while
// a salvage pass over the same damaged artifact still recovers every
// untampered chunk bit-identically.
func TestChaosProofCatchesCRCCollision(t *testing.T) {
	blob, full, dims := chaosContainer(t)

	ix, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}
	victim := 3
	ref := ix.Chunks[victim]

	// Live tampering: the injector corrupts every fetched range while
	// preserving its CRC32, so only proof verification can object.
	faulty := fzio.NewFaultFetcher(fzio.NewBytesFetcher(blob), fzio.FaultConfig{Seed: 41, CollideCRCRate: 1})
	colliding := retryOver(faulty)

	_, err = DecompressRegion(tp, colliding, FullRegion(dims), RegionOpts{Workers: 2, VerifyProofs: true})
	if err == nil {
		t.Fatal("CRC-colliding corruption decoded silently")
	}
	if !errors.Is(err, fzio.ErrProofMismatch) {
		t.Fatalf("got %v, want ErrProofMismatch (not a CRC or decode error)", err)
	}
	if errors.Is(err, fzio.ErrCRCMismatch) {
		t.Fatalf("proof-checked read failed as a CRC mismatch: %v", err)
	}
	if colliding.Retries() != 0 {
		t.Fatalf("proof failures were retried %d times; the taxonomy forbids it", colliding.Retries())
	}
	if faulty.CRCCollisions() == 0 {
		t.Fatal("injector never collided a CRC — the test exercised nothing")
	}

	// The accounting side: a clean proof-checked read counts one
	// substantive verification per decoded chunk.
	_, rep, err := DecompressRegionReport(tp, fzio.NewBytesFetcher(blob), FullRegion(dims),
		RegionOpts{Workers: 2, VerifyProofs: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Region.ProofVerified != int64(rep.Region.Decoded) || rep.Region.ProofVerified == 0 {
		t.Fatalf("ProofVerified=%d, Decoded=%d: want one verification per decoded chunk",
			rep.Region.ProofVerified, rep.Region.Decoded)
	}

	// Salvage the persistently tampered artifact: one chunk is lost, the
	// rest come back bit-identical.
	tampered2 := append([]byte(nil), blob...)
	payload := tampered2[ref.Offset : ref.Offset+ref.Length]
	ok := false
	for delta := uint32(1); delta < 16 && !ok; delta++ {
		ok = fzio.CorruptPreservingCRC32(payload, delta)
	}
	if !ok {
		t.Fatal("could not build a CRC-preserving tamper")
	}
	salvaged, survey, err := fzio.SalvageChunked(fzio.NewBytesFetcher(tampered2))
	if err != nil {
		t.Fatalf("SalvageChunked: %v", err)
	}
	if survey.Intact() != len(ix.Chunks)-1 || survey.Chunks[victim].State != fzio.ChunkCorrupt {
		t.Fatalf("survey = %d intact, victim %q", survey.Intact(), survey.Chunks[victim].State)
	}
	out, mask, err := DecompressSalvage(tp, fzio.NewBytesFetcher(tampered2), DecompressOpts{})
	if err != nil {
		t.Fatalf("DecompressSalvage: %v", err)
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
	recovered, _, err := Decompress(tp, salvaged)
	if err != nil {
		t.Fatalf("decoding the salvaged container: %v", err)
	}
	wantElems := (dims.SlowExtent() - ix.Chunks[victim].Planes) * plane
	if len(recovered) != wantElems {
		t.Fatalf("salvaged decode has %d elements, want %d", len(recovered), wantElems)
	}
}

// fetcherFunc adapts closures to fzio.ChunkFetcher for fault shaping the
// injector doesn't model.
type fetcherFunc struct {
	read func(off int64, n int) ([]byte, error)
	size func() (int64, error)
}

func (f fetcherFunc) ReadRange(off int64, n int) ([]byte, error) { return f.read(off, n) }
func (f fetcherFunc) Size() (int64, error)                       { return f.size() }
