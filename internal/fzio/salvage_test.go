package fzio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"fzmod/internal/grid"
)

// v1Fixture reads a version-1 artifact (no leaf hashes, no root) written
// by the last tree before the Merkle trees. The fixtures live in core's
// golden corpus, which also decodes them through every read door against
// the field that tree decoded; here they go through every container-level
// reader.
func v1Fixture(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// Version-1 artifacts must still parse through every current reader:
// UnmarshalChunked, FetchIndex (with vacuous proofs), and the salvage
// survey, all agreeing on every chunk payload.
func TestV1ChunkedCompat(t *testing.T) {
	blob := v1Fixture(t, "v1-default-hurr.fzmc")
	c, err := UnmarshalChunked(blob)
	if err != nil {
		t.Fatalf("UnmarshalChunked(v1): %v", err)
	}
	if c.Root != nil {
		t.Fatalf("v1 container reports a Merkle root: %x", c.Root)
	}
	ix, err := FetchIndex(NewBytesFetcher(blob))
	if err != nil {
		t.Fatalf("FetchIndex(v1): %v", err)
	}
	if ix.HasProofs() {
		t.Fatal("v1 index claims proofs")
	}
	s, err := SurveyArtifact(NewBytesFetcher(blob))
	if err != nil {
		t.Fatalf("SurveyArtifact(v1): %v", err)
	}
	if s.Damaged() || s.Intact() != 4 || s.Root != nil {
		t.Fatalf("v1 survey = damaged=%v intact=%d root=%x", s.Damaged(), s.Intact(), s.Root)
	}
	if c.NumChunks() != 4 || ix.NumChunks() != 4 {
		t.Fatalf("v1 chunk counts: table %d, index %d, want 4", c.NumChunks(), ix.NumChunks())
	}
	for i := range c.Chunks {
		payload, err := c.Chunk(i)
		if err != nil {
			t.Fatalf("Chunk(%d): %v", i, err)
		}
		ref := ix.Chunks[i]
		if !bytes.Equal(payload, blob[ref.Offset:ref.Offset+ref.Length]) || !bytes.Equal(payload, s.Chunks[i].Payload()) {
			t.Fatalf("chunk %d: table, index and survey disagree on the payload", i)
		}
		if err := ix.VerifyChunk(i, payload); err != nil {
			t.Fatalf("VerifyChunk(%d): %v", i, err)
		}
		// Proof verification on a rootless artifact is vacuous, not an error.
		if err := ix.VerifyProof(i, payload); err != nil {
			t.Fatalf("vacuous VerifyProof(%d): %v", i, err)
		}
	}
}

// The v1 stream carries the same chunk payloads as the v1 chunked
// container its writer produced from the same field.
func TestV1StreamCompat(t *testing.T) {
	blob := v1Fixture(t, "v1-default-hurr.fzms")
	c, err := UnmarshalChunked(v1Fixture(t, "v1-default-hurr.fzmc"))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("NewStreamReader(v1): %v", err)
	}
	for i := 0; ; i++ {
		payload, planes, err := sr.Next(nil)
		if err != nil {
			if i == c.NumChunks() && errors.Is(err, io.EOF) {
				break
			}
			t.Fatalf("Next(%d): %v", i, err)
		}
		want, err := c.Chunk(i)
		if err != nil {
			t.Fatal(err)
		}
		if planes != c.Chunks[i].Planes || !bytes.Equal(payload, want) {
			t.Fatalf("frame %d diverges from chunk %d of the v1 chunked container", i, i)
		}
	}

	ix, err := FetchIndex(NewBytesFetcher(blob))
	if err != nil {
		t.Fatalf("FetchIndex(v1 stream): %v", err)
	}
	if ix.HasProofs() || ix.NumChunks() != c.NumChunks() {
		t.Fatalf("v1 stream index: proofs=%v chunks=%d", ix.HasProofs(), ix.NumChunks())
	}
	s, err := SurveyArtifact(NewBytesFetcher(blob))
	if err != nil {
		t.Fatalf("SurveyArtifact(v1 stream): %v", err)
	}
	if s.Damaged() || s.Intact() != c.NumChunks() {
		t.Fatalf("v1 stream survey = damaged=%v intact=%d", s.Damaged(), s.Intact())
	}
}

func TestSurveyChunkedDamage(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 8}
	blob, _, chunks := testChunkedBlob(t, dims, 4)

	// Pristine artifact: everything intact.
	s, err := SurveyArtifact(NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}
	if s.Damaged() || s.Intact() != 4 || !s.RootVerified || s.Root == nil {
		t.Fatalf("pristine survey = %+v", s)
	}
	for i, sc := range s.Chunks {
		if !bytes.Equal(sc.Payload(), chunks[i]) {
			t.Fatalf("chunk %d payload diverges", i)
		}
	}

	// Flip a byte inside chunk 2's payload: exactly that chunk corrupt.
	ix, err := FetchIndex(NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[ix.Chunks[2].Offset+5] ^= 0x10
	s, err = SurveyArtifact(NewBytesFetcher(bad))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Damaged() || s.Intact() != 3 {
		t.Fatalf("tampered survey: damaged=%v intact=%d", s.Damaged(), s.Intact())
	}
	if s.Chunks[2].State != ChunkCorrupt {
		t.Fatalf("chunk 2 state = %q, want corrupt", s.Chunks[2].State)
	}

	// Truncate inside the last chunk: it goes missing, the rest survive.
	cut := blob[:ix.Chunks[3].Offset+ix.Chunks[3].Length/2]
	s, err = SurveyArtifact(NewBytesFetcher(cut))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Truncated || s.Intact() != 3 || s.Chunks[3].State != ChunkMissing {
		t.Fatalf("truncated survey: truncated=%v intact=%d state=%q",
			s.Truncated, s.Intact(), s.Chunks[3].State)
	}

	// Tamper with the recorded root: the survey flags it but still vouches
	// for every chunk via CRC + leaf hash.
	badRoot := append([]byte(nil), blob...)
	rootPos := ix.Chunks[0].Offset - HashSize
	badRoot[rootPos] ^= 0xFF
	s, err = SurveyArtifact(NewBytesFetcher(badRoot))
	if err != nil {
		t.Fatal(err)
	}
	if s.RootVerified || !s.Damaged() || s.Intact() != 4 {
		t.Fatalf("bad-root survey: rootVerified=%v damaged=%v intact=%d",
			s.RootVerified, s.Damaged(), s.Intact())
	}
	// The strict readers must refuse the same artifact outright.
	if _, err := UnmarshalChunked(badRoot); !errors.Is(err, ErrProofMismatch) {
		t.Fatalf("UnmarshalChunked(bad root) = %v, want ErrProofMismatch", err)
	}
	if _, err := FetchIndex(NewBytesFetcher(badRoot)); !errors.Is(err, ErrProofMismatch) {
		t.Fatalf("FetchIndex(bad root) = %v, want ErrProofMismatch", err)
	}
}

// A corruption crafted to preserve the CRC32 must still be classified
// corrupt — by the recorded leaf hash.
func TestSurveyCatchesCRCCollision(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 8}
	blob, _, _ := testChunkedBlob(t, dims, 4)
	ix, err := FetchIndex(NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	ref := ix.Chunks[1]
	payload := bad[ref.Offset : ref.Offset+ref.Length]
	if !CorruptPreservingCRC32(payload, 1) {
		t.Fatal("collision injector declined the payload")
	}
	if crc32.ChecksumIEEE(payload) != ref.CRC {
		t.Fatal("injector failed to preserve the CRC")
	}
	s, err := SurveyArtifact(NewBytesFetcher(bad))
	if err != nil {
		t.Fatal(err)
	}
	if s.Chunks[1].State != ChunkCorrupt {
		t.Fatalf("CRC-colliding chunk classified %q, want corrupt", s.Chunks[1].State)
	}
}

func TestSalvageChunkedRebuilds(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 8}
	blob, h, chunks := testChunkedBlob(t, dims, 4)
	ix, err := FetchIndex(NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[ix.Chunks[1].Offset] ^= 0x01 // chunk 1 corrupt

	out, s, err := SalvageChunked(NewBytesFetcher(bad))
	if err != nil {
		t.Fatalf("SalvageChunked: %v", err)
	}
	if s.Intact() != 3 {
		t.Fatalf("salvaged %d chunks, want 3", s.Intact())
	}
	// The rebuilt container is a fully valid v2 artifact covering the
	// surviving planes, every payload bit-identical to the original.
	c, err := UnmarshalChunked(out)
	if err != nil {
		t.Fatalf("UnmarshalChunked(salvaged): %v", err)
	}
	if c.Root == nil {
		t.Fatal("salvaged container has no Merkle root")
	}
	if got, want := c.Header.Dims, h.Dims.WithSlowExtent(6); got != want {
		t.Fatalf("salvaged dims = %v, want %v", got, want)
	}
	survivors := [][]byte{chunks[0], chunks[2], chunks[3]}
	if len(c.Chunks) != len(survivors) {
		t.Fatalf("salvaged %d chunks, want %d", len(c.Chunks), len(survivors))
	}
	for i, want := range survivors {
		got, err := c.Chunk(i)
		if err != nil {
			t.Fatalf("Chunk(%d): %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("salvaged chunk %d not bit-identical", i)
		}
	}
	// And it survives its own survey unscathed.
	s2, err := SurveyArtifact(NewBytesFetcher(out))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Damaged() {
		t.Fatal("salvaged container surveys as damaged")
	}

	// Nothing intact at all → a hard error.
	allBad := append([]byte(nil), blob...)
	for _, ref := range ix.Chunks {
		allBad[ref.Offset] ^= 0xFF
	}
	if _, _, err := SalvageChunked(NewBytesFetcher(allBad)); err == nil {
		t.Fatal("SalvageChunked succeeded with zero intact chunks")
	}
}

func TestSurveyMonolithic(t *testing.T) {
	c := New(Header{Pipeline: "test-pipe", Dims: grid.Dims{X: 4, Y: 4, Z: 4}, EB: 1e-3})
	if err := c.Add("quant", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	blob, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	s, err := SurveyArtifact(NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}
	if s.Flavor != FlavorMonolithic || s.Damaged() || s.Intact() != 1 {
		t.Fatalf("monolithic survey = %+v", s)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)-3] ^= 0x04
	s, err = SurveyArtifact(NewBytesFetcher(bad))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Damaged() || s.Chunks[0].State != ChunkCorrupt {
		t.Fatalf("corrupt monolithic survey = %+v", s.Chunks[0])
	}
}

// The truncation contract, exhaustively: for EVERY prefix length of a
// multi-frame stream, the survey recovers exactly the frames the prefix
// fully contains, bit-identically — never a partial frame, never a
// spurious error once one complete frame exists.
func TestStreamSalvageEveryPrefix(t *testing.T) {
	dims := grid.Dims{X: 4, Y: 4, Z: 6}
	h := ChunkedHeader{Pipeline: "test-pipe", Dims: dims, EB: 1e-3, Planes: 2}
	chunks := [][]byte{bytes.Repeat([]byte{7}, 25), bytes.Repeat([]byte{8}, 41), bytes.Repeat([]byte{9}, 17)}
	blob := testStreamBlob(t, h, chunks, func(int) int { return 2 })

	// Frame end offsets: prologue, then each frame's header+payload.
	prologue := len(appendStreamPrologueV(nil, h, StreamVersion)) + 4
	frameEnds := make([]int, len(chunks))
	pos := prologue
	for i, c := range chunks {
		pos += uvarintSize(uint64(len(c))) + uvarintSize(2) + 4 + len(c)
		frameEnds[i] = pos
	}

	for n := 0; n <= len(blob); n++ {
		wantFrames := 0
		for _, end := range frameEnds {
			if n >= end {
				wantFrames++
			}
		}
		s, err := SurveyArtifact(NewBytesFetcher(blob[:n]))
		if err != nil {
			if wantFrames > 0 {
				t.Fatalf("prefix %d: survey errored with %d complete frames present: %v", n, wantFrames, err)
			}
			continue
		}
		if got := s.Intact(); got != wantFrames {
			t.Fatalf("prefix %d: recovered %d frames, want %d", n, got, wantFrames)
		}
		k := 0
		for _, sc := range s.Chunks {
			if sc.State != ChunkIntact {
				continue
			}
			if !bytes.Equal(sc.Payload(), chunks[k]) {
				t.Fatalf("prefix %d: frame %d not bit-identical", n, k)
			}
			k++
		}
		if n < len(blob) && !s.Truncated {
			t.Fatalf("prefix %d of %d not flagged truncated", n, len(blob))
		}
		if n == len(blob) && s.Damaged() {
			t.Fatalf("full stream surveys as damaged")
		}
	}
}

// A tampered frame inside an intact-length stream: the frame CRC catches
// a plain flip; a CRC-preserving tamper is caught by the v2 trailer leaf
// hash.
func TestStreamSurveyCatchesTampering(t *testing.T) {
	dims := grid.Dims{X: 4, Y: 4, Z: 4}
	h := ChunkedHeader{Pipeline: "test-pipe", Dims: dims, EB: 1e-3, Planes: 2}
	chunks := [][]byte{bytes.Repeat([]byte{5}, 64), bytes.Repeat([]byte{6}, 64)}
	blob := testStreamBlob(t, h, chunks, func(int) int { return 2 })
	prologue := len(appendStreamPrologueV(nil, h, StreamVersion)) + 4
	frame0Payload := prologue + uvarintSize(64) + uvarintSize(2) + 4

	flip := append([]byte(nil), blob...)
	flip[frame0Payload+3] ^= 0x20
	s, err := SurveyArtifact(NewBytesFetcher(flip))
	if err != nil {
		t.Fatal(err)
	}
	if s.Chunks[0].State != ChunkCorrupt || s.Chunks[1].State != ChunkIntact {
		t.Fatalf("flip survey = %q/%q", s.Chunks[0].State, s.Chunks[1].State)
	}

	collide := append([]byte(nil), blob...)
	payload := collide[frame0Payload : frame0Payload+64]
	if !CorruptPreservingCRC32(payload, 2) {
		t.Fatal("collision injector declined the payload")
	}
	s, err = SurveyArtifact(NewBytesFetcher(collide))
	if err != nil {
		t.Fatal(err)
	}
	if s.Chunks[0].State != ChunkCorrupt {
		t.Fatalf("CRC-colliding frame classified %q, want corrupt", s.Chunks[0].State)
	}
}

func uvarintSize(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}
