package compare

import (
	"math/rand"
	"testing"

	"fzmod/internal/core"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

// TestCorruptionNeverPanics is the failure-injection sweep: for every
// compressor, take a valid container and apply byte flips, truncations and
// extensions at sampled positions. Decompression must either succeed (the
// flip landed somewhere harmless — impossible here because the container
// CRCs every segment) or return an error; it must never panic or hang.
func TestCorruptionNeverPanics(t *testing.T) {
	dims := grid.D3(16, 16, 8)
	data := sdrbench.GenHURR(dims, 21)
	rng := rand.New(rand.NewSource(99))

	for _, c := range all() {
		blob, err := c.Compress(tp, data, dims, preprocess.RelBound(1e-3))
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		decompress := func(b []byte) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic on corrupt input: %v", c.Name(), r)
				}
			}()
			_, _, _ = c.Decompress(tp, b)
		}

		// Byte flips at 64 sampled positions.
		for trial := 0; trial < 64; trial++ {
			mut := append([]byte(nil), blob...)
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			decompress(mut)
		}
		// Truncations at 16 sampled lengths.
		for trial := 0; trial < 16; trial++ {
			decompress(blob[:rng.Intn(len(blob))])
		}
		// Random garbage suffix.
		garbage := append(append([]byte(nil), blob...), make([]byte, 64)...)
		rng.Read(garbage[len(blob):])
		decompress(garbage)
		// Random garbage entirely.
		junk := make([]byte, 256)
		rng.Read(junk)
		decompress(junk)
	}
}

// TestCorruptionDetectedByCRC verifies that a payload flip inside any
// segment of a pipeline container is detected (the container checksums
// every segment, so a silent wrong answer would be a format bug).
func TestCorruptionDetectedByCRC(t *testing.T) {
	dims := grid.D3(16, 16, 8)
	data := sdrbench.GenHURR(dims, 22)
	blob, err := core.NewDefault().Compress(tp, data, dims, preprocess.RelBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := core.DecompressReportWithOpts(tp, blob, core.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	silent := 0
	for trial := 0; trial < 128; trial++ {
		mut := append([]byte(nil), blob...)
		// Restrict flips to the payload region (skip the header ~64 B) so
		// every flip hits a CRC-protected segment.
		pos := 64 + rng.Intn(len(mut)-64)
		mut[pos] ^= 0xA5
		got, _, _, err := core.DecompressReportWithOpts(tp, mut, core.Opts{})
		if err != nil {
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				silent++
				break
			}
		}
	}
	if silent > 0 {
		t.Errorf("%d/128 payload corruptions produced silently wrong output", silent)
	}
}

// TestDeterministicStreams checks that every compressor is bit-reproducible
// for a fixed input — required for the container CRCs to be meaningful and
// for cache-keyed workflows.
func TestDeterministicStreams(t *testing.T) {
	dims := grid.D3(16, 12, 6)
	data := sdrbench.GenNYX(dims, 23)
	for _, c := range all() {
		a, err := c.Compress(tp, data, dims, preprocess.RelBound(1e-3))
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		b, err := c.Compress(tp, data, dims, preprocess.RelBound(1e-3))
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic size %d vs %d", c.Name(), len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic byte at %d", c.Name(), i)
			}
		}
	}
}
