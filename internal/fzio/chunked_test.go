package fzio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"fzmod/internal/grid"
)

func sampleChunked(t *testing.T) ([]byte, [][]byte) {
	t.Helper()
	chunks := [][]byte{
		[]byte("chunk-zero-payload"),
		[]byte("chunk-one"),
		{},
		[]byte{0xde, 0xad, 0xbe, 0xef},
	}
	blob, err := MarshalChunked(ChunkedHeader{
		Pipeline: "fzmod-default",
		Dims:     grid.D3(6, 5, 9),
		EB:       2.5e-4,
		RelEB:    1e-4,
		Planes:   3,
	}, chunks, []int{3, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	return blob, chunks
}

func TestChunkedRoundtrip(t *testing.T) {
	blob, chunks := sampleChunked(t)
	if !IsChunked(blob) {
		t.Fatal("IsChunked false on chunked container")
	}
	c, err := UnmarshalChunked(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := ChunkedHeader{Pipeline: "fzmod-default", Dims: grid.D3(6, 5, 9), EB: 2.5e-4, RelEB: 1e-4, Planes: 3}
	if c.Header != want {
		t.Errorf("header %+v, want %+v", c.Header, want)
	}
	if c.NumChunks() != len(chunks) {
		t.Fatalf("NumChunks = %d, want %d", c.NumChunks(), len(chunks))
	}
	for i, wantChunk := range chunks {
		got, err := c.Chunk(i)
		if err != nil {
			t.Fatalf("Chunk(%d): %v", i, err)
		}
		if !bytes.Equal(got, wantChunk) {
			t.Errorf("chunk %d payload mismatch", i)
		}
	}
	if _, err := c.Chunk(-1); err == nil {
		t.Error("negative chunk index should error")
	}
	if _, err := c.Chunk(len(chunks)); err == nil {
		t.Error("out-of-range chunk index should error")
	}
}

func TestChunkedMonolithicMagicsDisjoint(t *testing.T) {
	mono, err := sampleContainer().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if IsChunked(mono) {
		t.Error("monolithic container misidentified as chunked")
	}
	blob, _ := sampleChunked(t)
	if _, err := Unmarshal(blob); err == nil {
		t.Error("chunked container should not parse as monolithic")
	}
}

func TestChunkedMarshalValidation(t *testing.T) {
	h := ChunkedHeader{Pipeline: "p", Dims: grid.D3(4, 4, 8), Planes: 4}
	if _, err := MarshalChunked(h, nil, nil); err == nil {
		t.Error("zero chunks should fail")
	}
	if _, err := MarshalChunked(h, [][]byte{{1}}, []int{4, 4}); err == nil {
		t.Error("chunk/planes length mismatch should fail")
	}
	if _, err := MarshalChunked(h, [][]byte{{1}, {2}}, []int{4, 3}); err == nil {
		t.Error("plane sum mismatch should fail")
	}
	if _, err := MarshalChunked(h, [][]byte{{1}, {2}}, []int{8, 0}); err == nil {
		t.Error("zero-plane chunk should fail")
	}
	if _, err := MarshalChunked(ChunkedHeader{Dims: grid.Dims{}}, [][]byte{{1}}, []int{1}); err == nil {
		t.Error("invalid dims should fail")
	}
}

// TestChunkedCorruptHeader mirrors the corruption suite in
// internal/baseline/compare: flips, truncations and garbage against the
// header region must surface as errors, never panics or silent success.
func TestChunkedCorruptHeader(t *testing.T) {
	blob, _ := sampleChunked(t)
	cases := map[string][]byte{
		"empty":       nil,
		"short":       blob[:3],
		"bad magic":   append([]byte("NOPE"), blob[4:]...),
		"bad version": append([]byte(ChunkedMagic), 9, 0),
		"cut header":  blob[:10],
		"cut table":   blob[:30],
	}
	for name, b := range cases {
		if _, err := UnmarshalChunked(b); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestChunkedTruncatedPayload(t *testing.T) {
	blob, chunks := sampleChunked(t)
	// Remove bytes from the payload area: the container must fail to parse
	// (payload bounds) or the affected chunk must fail its CRC.
	for cut := 1; cut < len(chunks[3])+2; cut++ {
		c, err := UnmarshalChunked(blob[:len(blob)-cut])
		if err != nil {
			continue
		}
		sawErr := false
		for i := 0; i < c.NumChunks(); i++ {
			if _, err := c.Chunk(i); err != nil {
				sawErr = true
			}
		}
		if !sawErr {
			t.Errorf("truncation by %d bytes went undetected", cut)
		}
	}
}

func TestChunkedBadOffset(t *testing.T) {
	// Rebuild a container by hand with a hole between chunk 0 and chunk 1;
	// UnmarshalChunked must reject the non-contiguous offset.
	h := ChunkedHeader{Pipeline: "p", Dims: grid.D3(2, 2, 2), Planes: 1}
	good, err := MarshalChunked(h, [][]byte{{1, 2}, {3}}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalChunked(good); err != nil {
		t.Fatal(err)
	}
	// The chunk table is near the end of the header; find chunk 1's offset
	// varint (value 2, encoded as 0x02 following chunk 0's entry) and bump
	// it. Locate it by scanning for the exact serialized table suffix.
	mut := append([]byte(nil), good...)
	payload := []byte{1, 2, 3}
	tableStart := len(mut) - len(payload)
	// chunk 1 entry: offset varint, length varint, 4-byte CRC, planes
	// varint, 32-byte leaf hash; the 32-byte Merkle root follows the table.
	off1Pos := tableStart - HashSize - (1 + 1 + 4 + 1 + HashSize)
	if mut[off1Pos] != 2 {
		t.Fatalf("test layout assumption broken: byte %d is %d, want 2", off1Pos, mut[off1Pos])
	}
	mut[off1Pos] = 3
	if _, err := UnmarshalChunked(mut); err == nil {
		t.Error("non-contiguous chunk offset should be rejected")
	}
}

func TestChunkedCRCDetectsPayloadFlip(t *testing.T) {
	blob, chunks := sampleChunked(t)
	payloadLen := 0
	for _, c := range chunks {
		payloadLen += len(c)
	}
	for i := 0; i < payloadLen; i++ {
		mut := append([]byte(nil), blob...)
		mut[len(mut)-1-i] ^= 0xA5
		c, err := UnmarshalChunked(mut)
		if err != nil {
			continue
		}
		sawErr := false
		for j := 0; j < c.NumChunks(); j++ {
			if _, err := c.Chunk(j); err != nil {
				sawErr = true
				if !errors.Is(err, ErrCRCMismatch) {
					t.Errorf("payload flip at -%d: chunk %d error %v does not wrap ErrCRCMismatch", i+1, j, err)
				}
			}
		}
		if !sawErr {
			t.Errorf("payload flip at -%d went undetected", i+1)
		}
	}
}

// appendChunkedHeader hand-builds a chunked container prefix up to the
// chunk table, for crafting adversarial inputs the marshaller refuses to
// produce.
func appendChunkedHeader(pipeline string, x, y, z, nominal, nChunks uint64) []byte {
	out := []byte(ChunkedMagic)
	out = binary.LittleEndian.AppendUint16(out, ChunkedVersion)
	out = binary.AppendUvarint(out, uint64(len(pipeline)))
	out = append(out, pipeline...)
	out = binary.AppendUvarint(out, x)
	out = binary.AppendUvarint(out, y)
	out = binary.AppendUvarint(out, z)
	out = append(out, make([]byte, 16)...) // EB, RelEB
	out = binary.AppendUvarint(out, nominal)
	out = binary.AppendUvarint(out, nChunks)
	return out
}

// TestChunkedCraftedLengthOverflow: a chunk declaring a near-MaxInt64
// length must be rejected, not wrap the bounds arithmetic into a panic.
func TestChunkedCraftedLengthOverflow(t *testing.T) {
	blob := appendChunkedHeader("p", 2, 2, 2, 2, 1)
	blob = binary.AppendUvarint(blob, 0)             // offset
	blob = binary.AppendUvarint(blob, 1<<63-1)       // absurd length
	blob = binary.LittleEndian.AppendUint32(blob, 0) // CRC
	blob = binary.AppendUvarint(blob, 2)             // planes
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic on crafted chunk length: %v", r)
		}
	}()
	if _, err := UnmarshalChunked(blob); err == nil {
		t.Error("crafted chunk length should be rejected")
	}
}

// TestChunkedCraftedHugeDims: a header declaring an overflowing or absurd
// element count must fail before any decoder allocates the output field.
func TestChunkedCraftedHugeDims(t *testing.T) {
	for _, dims := range [][3]uint64{
		{3, 1, 1 << 62},       // N overflows int64
		{1 << 21, 1 << 21, 2}, // no single-dim overflow, product too large
		{1 << 40, 1, 1},       // single dim over the limit
	} {
		blob := appendChunkedHeader("p", dims[0], dims[1], dims[2], 1, 1)
		blob = binary.AppendUvarint(blob, 0)
		blob = binary.AppendUvarint(blob, 0)
		blob = binary.LittleEndian.AppendUint32(blob, 0)
		blob = binary.AppendUvarint(blob, dims[2])
		if _, err := UnmarshalChunked(blob); err == nil {
			t.Errorf("dims %v should be rejected", dims)
		}
	}
}

func TestChunkedFuzzNeverPanics(t *testing.T) {
	blob, _ := sampleChunked(t)
	rng := rand.New(rand.NewSource(41))
	try := func(b []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on corrupt chunked container: %v", r)
			}
		}()
		c, err := UnmarshalChunked(b)
		if err != nil {
			return
		}
		for i := 0; i < c.NumChunks(); i++ {
			_, _ = c.Chunk(i)
		}
	}
	for trial := 0; trial < 256; trial++ {
		mut := append([]byte(nil), blob...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		try(mut)
	}
	for trial := 0; trial < 64; trial++ {
		try(blob[:rng.Intn(len(blob))])
	}
	junk := make([]byte, 256)
	rng.Read(junk)
	copy(junk, ChunkedMagic)
	binary.LittleEndian.PutUint16(junk[4:], ChunkedVersion)
	try(junk)
}
