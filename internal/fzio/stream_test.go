package fzio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"fzmod/internal/grid"
)

func sampleStream(t *testing.T) ([]byte, [][]byte, []int) {
	t.Helper()
	chunks := [][]byte{
		[]byte("stream-chunk-zero"),
		[]byte("c1"),
		[]byte{0xca, 0xfe, 0xba, 0xbe},
	}
	planes := []int{4, 3, 2}
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, ChunkedHeader{
		Pipeline: "fzmod-default",
		Dims:     grid.D3(5, 4, 9),
		EB:       1.5e-3,
		RelEB:    1e-4,
		Planes:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		if err := sw.WriteChunk(c, planes[i]); err != nil {
			t.Fatalf("WriteChunk(%d): %v", i, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("BytesWritten %d, buffer %d", sw.BytesWritten(), buf.Len())
	}
	return buf.Bytes(), chunks, planes
}

func TestStreamRoundtrip(t *testing.T) {
	blob, chunks, planes := sampleStream(t)
	if !IsStream(blob) {
		t.Fatal("IsStream false on stream container")
	}
	sr, err := NewStreamReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	want := ChunkedHeader{Pipeline: "fzmod-default", Dims: grid.D3(5, 4, 9), EB: 1.5e-3, RelEB: 1e-4, Planes: 4}
	if sr.Header() != want {
		t.Errorf("header %+v, want %+v", sr.Header(), want)
	}
	var buf []byte
	for i := 0; ; i++ {
		payload, k, err := sr.Next(buf)
		if err == io.EOF {
			if i != len(chunks) {
				t.Fatalf("EOF after %d chunks, want %d", i, len(chunks))
			}
			break
		}
		if err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if !bytes.Equal(payload, chunks[i]) || k != planes[i] {
			t.Errorf("chunk %d: payload/planes mismatch", i)
		}
		buf = payload
	}
	if sr.NumChunks() != len(chunks) {
		t.Errorf("NumChunks = %d, want %d", sr.NumChunks(), len(chunks))
	}
	// Next after EOF stays EOF.
	if _, _, err := sr.Next(nil); err != io.EOF {
		t.Errorf("Next after end = %v, want io.EOF", err)
	}
}

func TestStreamReassembleChunked(t *testing.T) {
	blob, chunks, planes := sampleStream(t)
	re, err := ReassembleChunked(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := MarshalChunked(ChunkedHeader{
		Pipeline: "fzmod-default", Dims: grid.D3(5, 4, 9), EB: 1.5e-3, RelEB: 1e-4, Planes: 4,
	}, chunks, planes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, direct) {
		t.Error("reassembled stream differs from directly marshalled chunked container")
	}
}

func TestStreamMagicsDisjoint(t *testing.T) {
	blob, _, _ := sampleStream(t)
	if IsChunked(blob) {
		t.Error("stream container misidentified as chunked")
	}
	chunked, _ := sampleChunked(t)
	if IsStream(chunked) {
		t.Error("chunked container misidentified as stream")
	}
	if _, err := NewStreamReader(bytes.NewReader(chunked)); err == nil {
		t.Error("chunked container should not parse as stream")
	}
}

func TestStreamWriterValidation(t *testing.T) {
	if _, err := NewStreamWriter(io.Discard, ChunkedHeader{}); err == nil {
		t.Error("invalid dims should fail")
	}
	sw, err := NewStreamWriter(io.Discard, ChunkedHeader{Pipeline: "p", Dims: grid.D3(2, 2, 4), Planes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteChunk(nil, 2); err == nil {
		t.Error("empty payload should fail")
	}
	if err := sw.WriteChunk([]byte{1}, 0); err == nil {
		t.Error("zero planes should fail")
	}
	if err := sw.WriteChunk([]byte{1}, 5); err == nil {
		t.Error("over-covering chunk should fail")
	}
	if err := sw.Close(); err == nil {
		t.Error("Close before full coverage should fail")
	}
	if err := sw.WriteChunk([]byte{1}, 4); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Errorf("second Close should be a no-op, got %v", err)
	}
	if err := sw.WriteChunk([]byte{1}, 1); err == nil {
		t.Error("WriteChunk after Close should fail")
	}
}

// TestStreamTruncation: every proper prefix of a valid stream must fail
// with an error, never panic, never succeed.
func TestStreamTruncation(t *testing.T) {
	blob, _, _ := sampleStream(t)
	for cut := 0; cut < len(blob); cut++ {
		sr, err := NewStreamReader(bytes.NewReader(blob[:cut]))
		if err != nil {
			continue
		}
		sawErr := false
		for {
			_, _, err := sr.Next(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				sawErr = true
				break
			}
		}
		if !sawErr {
			t.Errorf("truncation to %d bytes went undetected", cut)
		}
	}
}

// TestStreamCorruption: single-byte flips anywhere in the stream must be
// caught by a frame CRC, the trailer cross-check, or a parse error.
func TestStreamCorruption(t *testing.T) {
	blob, _, _ := sampleStream(t)
	for i := 0; i < len(blob); i++ {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x5A
		sr, err := NewStreamReader(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		sawErr := false
		for {
			_, _, err := sr.Next(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				sawErr = true
				break
			}
		}
		if !sawErr {
			t.Errorf("byte flip at %d went undetected", i)
		}
	}
}

// TestStreamCraftedHugeFrame: a frame declaring a near-limit length over a
// short stream must fail from truncation without committing the declared
// allocation.
func TestStreamCraftedHugeFrame(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewStreamWriter(&buf, ChunkedHeader{Pipeline: "p", Dims: grid.D3(2, 2, 8), Planes: 4}); err != nil {
		t.Fatal(err)
	}
	crafted := append([]byte(nil), buf.Bytes()...)
	crafted = binary.AppendUvarint(crafted, maxStreamChunkBytes) // huge length
	crafted = binary.AppendUvarint(crafted, 4)                   // planes
	crafted = append(crafted, 0, 0, 0, 0)                        // CRC
	crafted = append(crafted, []byte("tiny")...)
	sr, err := NewStreamReader(bytes.NewReader(crafted))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sr.Next(nil); err == nil {
		t.Error("huge declared frame over short stream should fail")
	}
	// Over the limit entirely: rejected before any read.
	crafted2 := append([]byte(nil), buf.Bytes()...)
	crafted2 = binary.AppendUvarint(crafted2, maxStreamChunkBytes+1)
	sr2, err := NewStreamReader(bytes.NewReader(crafted2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sr2.Next(nil); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("over-limit frame: got %v, want limit error", err)
	}
	// A planes count >= 2^63 would wrap negative after int conversion and
	// slip past the tiling arithmetic; it must be rejected outright.
	crafted3 := append([]byte(nil), buf.Bytes()...)
	crafted3 = binary.AppendUvarint(crafted3, 4)     // plausible length
	crafted3 = binary.AppendUvarint(crafted3, 1<<63) // absurd planes
	crafted3 = append(crafted3, 0, 0, 0, 0)          // CRC
	crafted3 = append(crafted3, []byte("data")...)   // payload
	sr3, err := NewStreamReader(bytes.NewReader(crafted3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sr3.Next(nil); err == nil || !strings.Contains(err.Error(), "plane") {
		t.Errorf("wrapping planes count: got %v, want plane-count error", err)
	}
}

// TestStreamTrailerTamper rewrites trailer bytes of a valid stream and
// checks the reader refuses the index even though every frame was intact.
func TestStreamTrailerTamper(t *testing.T) {
	blob, _, _ := sampleStream(t)
	// The trailer occupies the tail: count+entries+CRC+len+magic. Flip each
	// of the last 24 bytes in turn.
	for i := 1; i <= 24 && i <= len(blob); i++ {
		mut := append([]byte(nil), blob...)
		mut[len(mut)-i] ^= 0xFF
		sr, err := NewStreamReader(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		sawErr := false
		for {
			_, _, err := sr.Next(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				sawErr = true
				break
			}
		}
		if !sawErr {
			t.Errorf("trailer tamper at -%d went undetected", i)
		}
	}
}

// TestStreamTrailerNamesChunk: a trailer that disagrees with the frames
// read is reported by what disagrees — the count, a chunk's entry, its
// leaf hash (ErrProofMismatch) or the root — not by a byte offset.
func TestStreamTrailerNamesChunk(t *testing.T) {
	blob, _, _ := sampleStream(t)
	const entry = 1 + 1 + 4 + HashSize // length ‖ planes ‖ CRC ‖ hash
	index := len(blob) - 16 - (1 + 3*entry + HashSize)
	for _, tc := range []struct {
		off   int // byte of the index table to flip
		want  string
		proof bool
	}{
		{0, "chunk count", false},
		{1 + 2*entry + 3, "entry for chunk 2", false},
		{1 + entry + 6 + 5, "leaf hash for chunk 1", true},
		{1 + 3*entry + 7, "Merkle root", true},
	} {
		mut := bytes.Clone(blob)
		mut[index+tc.off] ^= 0x40
		sr, err := NewStreamReader(bytes.NewReader(mut))
		if err != nil {
			t.Fatal(err)
		}
		for err == nil {
			_, _, err = sr.Next(nil)
		}
		if !strings.Contains(err.Error(), tc.want) || errors.Is(err, ErrProofMismatch) != tc.proof {
			t.Errorf("flip at index byte %d: got %v, want %q (hash mismatch: %v)", tc.off, err, tc.want, tc.proof)
		}
	}
}

func TestStreamCraftedHugeDims(t *testing.T) {
	for _, dims := range [][3]uint64{
		{3, 1, 1 << 62},
		{1 << 21, 1 << 21, 2},
		{1 << 40, 1, 1},
	} {
		out := []byte(StreamMagic)
		out = binary.LittleEndian.AppendUint16(out, StreamVersion)
		out = binary.AppendUvarint(out, 1)
		out = append(out, 'p')
		out = binary.AppendUvarint(out, dims[0])
		out = binary.AppendUvarint(out, dims[1])
		out = binary.AppendUvarint(out, dims[2])
		out = append(out, make([]byte, 16)...)
		out = binary.AppendUvarint(out, 1)
		if _, err := NewStreamReader(bytes.NewReader(out)); err == nil {
			t.Errorf("dims %v should be rejected", dims)
		}
	}
}

// TestStreamWriterRefusesChunkBeyondLimit: the 2^20+1st frame is refused by
// the writer, not written for the trailer parser to refuse.
func TestStreamWriterRefusesChunkBeyondLimit(t *testing.T) {
	sw, err := NewStreamWriter(io.Discard, ChunkedHeader{Pipeline: "p", Dims: grid.D1(grid.MaxChunks + 1), EB: 1, Planes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sw.refs = make([]ChunkRef, grid.MaxChunks) // as if 2^20 frames were out
	sw.planes = grid.MaxChunks
	if err := sw.WriteChunk([]byte{1}, 1); !errors.Is(err, grid.ErrLimit) {
		t.Fatalf("WriteChunk = %v, want grid.ErrLimit", err)
	}
}
