package fzio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"fzmod/internal/grid"
)

// assemblyHeader is the sample header shared by the scatter-writer tests.
var assemblyHeader = ChunkedHeader{
	Pipeline: "fzmod-default",
	Dims:     grid.D3(6, 5, 9),
	EB:       2.5e-4,
	RelEB:    1e-4,
	Planes:   3,
}

// scatterAssemble builds a container through the zero-copy path: layout
// from lengths, then each chunk written into its slice and sealed.
func scatterAssemble(t *testing.T, h ChunkedHeader, chunks [][]byte, planes []int) []byte {
	t.Helper()
	lengths := make([]int, len(chunks))
	for i, c := range chunks {
		lengths[i] = len(c)
	}
	a, err := NewChunkedAssembly(h, lengths, planes)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumChunks() != len(chunks) {
		t.Fatalf("NumChunks = %d, want %d", a.NumChunks(), len(chunks))
	}
	// Fill out of order to prove the windows are position-independent.
	for i := len(chunks) - 1; i >= 0; i-- {
		dst := a.ChunkSlice(i)
		if len(dst) != len(chunks[i]) {
			t.Fatalf("chunk %d slice is %d bytes, want %d", i, len(dst), len(chunks[i]))
		}
		copy(dst, chunks[i])
		a.SealChunk(i)
	}
	return a.Bytes()
}

// TestChunkedAssemblyByteIdentity proves the scatter-write path emits the
// same bytes as the gather path for identical chunk contents — the
// container format is one, regardless of which assembly produced it.
func TestChunkedAssemblyByteIdentity(t *testing.T) {
	chunks := [][]byte{
		[]byte("chunk-zero-payload"),
		[]byte("chunk-one"),
		{},
		[]byte{0xde, 0xad, 0xbe, 0xef},
	}
	planes := []int{3, 3, 2, 1}
	gather, err := MarshalChunked(assemblyHeader, chunks, planes)
	if err != nil {
		t.Fatal(err)
	}
	scatter := scatterAssemble(t, assemblyHeader, chunks, planes)
	if !bytes.Equal(gather, scatter) {
		t.Fatalf("scatter-assembled container differs from gather path:\n%x\n%x", scatter, gather)
	}
	// And it parses back to the same chunks with valid CRCs.
	c, err := UnmarshalChunked(scatter)
	if err != nil {
		t.Fatal(err)
	}
	for i := range chunks {
		got, err := c.Chunk(i)
		if err != nil {
			t.Fatalf("Chunk(%d): %v", i, err)
		}
		if !bytes.Equal(got, chunks[i]) {
			t.Errorf("chunk %d payload mismatch", i)
		}
	}
}

// TestChunkedAssemblyCorruption re-runs the corruption suite against a
// scatter-written container: payload CRC flips and truncation must be
// detected exactly as on gather-path containers.
func TestChunkedAssemblyCorruption(t *testing.T) {
	chunks := [][]byte{
		[]byte("first-chunk-data"),
		[]byte("second-chunk-data!"),
		[]byte("third"),
		[]byte("fourth-chunk"),
	}
	planes := []int{3, 3, 2, 1}
	blob := scatterAssemble(t, assemblyHeader, chunks, planes)

	c, err := UnmarshalChunked(blob)
	if err != nil {
		t.Fatal(err)
	}
	payloadStart := len(blob)
	for _, ref := range c.Chunks {
		payloadStart -= ref.Length
	}

	// CRC flip: every single-bit payload flip must fail exactly its chunk.
	for pos := payloadStart; pos < len(blob); pos++ {
		mut := append([]byte(nil), blob...)
		mut[pos] ^= 0x40
		mc, err := UnmarshalChunked(mut)
		if err != nil {
			t.Fatalf("payload flip at %d broke the header parse: %v", pos, err)
		}
		failures := 0
		for i := range chunks {
			if _, err := mc.Chunk(i); err != nil {
				failures++
				if !strings.Contains(err.Error(), "CRC") {
					t.Fatalf("flip at %d: unexpected error %v", pos, err)
				}
			}
		}
		if failures != 1 {
			t.Fatalf("flip at %d: %d chunks failed CRC, want exactly 1", pos, failures)
		}
	}

	// Truncation anywhere inside the payload area must be rejected at
	// parse time (the chunk table still claims the full extent).
	for _, cut := range []int{1, len(chunks[3]) / 2, len(chunks[3])} {
		if _, err := UnmarshalChunked(blob[:len(blob)-cut]); err == nil {
			t.Errorf("truncation by %d bytes not rejected", cut)
		}
	}

	// Missing seal: an unsealed chunk (CRC slot still zero) must fail its
	// CRC check rather than pass silently.
	lengths := []int{len(chunks[0]), len(chunks[1]), len(chunks[2]), len(chunks[3])}
	a, err := NewChunkedAssembly(assemblyHeader, lengths, planes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range chunks {
		copy(a.ChunkSlice(i), chunks[i])
		if i != 2 {
			a.SealChunk(i)
		}
	}
	uc, err := UnmarshalChunked(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uc.Chunk(2); err == nil {
		t.Error("unsealed chunk passed its CRC check")
	}
}

// TestChunkedOverlappingOffsetsRejected crafts a chunk table whose second
// entry's offset points back into the first chunk's payload; the parser
// must reject the overlap (offsets are required to be contiguous from
// zero), on both the scatter- and gather-produced prologue.
func TestChunkedOverlappingOffsetsRejected(t *testing.T) {
	chunks := [][]byte{
		bytes.Repeat([]byte{0x11}, 20),
		bytes.Repeat([]byte{0x22}, 20),
	}
	blob := scatterAssemble(t, ChunkedHeader{
		Pipeline: "p", Dims: grid.D3(4, 4, 6), EB: 1e-3, Planes: 3,
	}, chunks, []int{3, 3})

	// Locate chunk 1's table entry: its offset uvarint encodes 20 (one
	// byte) and immediately follows chunk 0's entry. Scan for the byte
	// sequence [offset=20][len=20] ahead of the payload area.
	payloadStart := len(blob) - 40
	idx := -1
	for pos := 0; pos < payloadStart-1; pos++ {
		if blob[pos] == 20 && blob[pos+1] == 20 {
			idx = pos // chunk 1 entry: offset 20, length 20
		}
	}
	if idx < 0 {
		t.Fatal("could not locate chunk 1 table entry")
	}
	mut := append([]byte(nil), blob...)
	mut[idx] = 10 // overlaps chunk 0's [0,20) payload window
	if _, err := UnmarshalChunked(mut); err == nil {
		t.Fatal("overlapping chunk offset not rejected")
	} else if !strings.Contains(err.Error(), "offset") {
		t.Fatalf("unexpected rejection: %v", err)
	}

	// Sanity: the unmodified container still parses.
	if _, err := UnmarshalChunked(blob); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedAssemblyValidation mirrors MarshalChunked's geometry checks.
func TestChunkedAssemblyValidation(t *testing.T) {
	h := ChunkedHeader{Pipeline: "p", Dims: grid.D3(4, 4, 6), EB: 1e-3, Planes: 3}
	cases := []struct {
		name    string
		lengths []int
		planes  []int
	}{
		{"no chunks", nil, nil},
		{"mismatched planes", []int{4, 4}, []int{3}},
		{"nonpositive planes", []int{4, 4}, []int{6, 0}},
		{"planes exceed extent", []int{4, 4}, []int{4, 4}},
		{"negative length", []int{-1, 4}, []int{3, 3}},
	}
	for _, tc := range cases {
		if _, err := NewChunkedAssembly(h, tc.lengths, tc.planes); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewChunkedAssembly(ChunkedHeader{Pipeline: "p", Planes: 3}, []int{4}, []int{3}); err == nil {
		t.Error("invalid dims accepted")
	}
}

// TestMarshalIntoMatchesMarshal pins the exact-size serializer against the
// historical allocation path across header shapes.
func TestMarshalIntoMatchesMarshal(t *testing.T) {
	c := New(Header{Pipeline: "fzmod-default", Dims: grid.D3(300, 2, 1), EB: 1e-6, RelEB: 1e-3, Extra: 512})
	if err := c.Add("modules", []byte("lorenzo\x00huffman")); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("codes", bytes.Repeat([]byte{0xab}, 300)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("pred.outval", nil); err != nil {
		t.Fatal(err)
	}
	want, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != c.MarshaledSize() {
		t.Fatalf("MarshaledSize %d, Marshal produced %d", c.MarshaledSize(), len(want))
	}
	dst := make([]byte, c.MarshaledSize()+7)
	n, err := c.MarshalInto(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[:n], want) {
		t.Fatal("MarshalInto bytes differ from Marshal")
	}
	if _, err := c.MarshalInto(make([]byte, c.MarshaledSize()-1)); err == nil {
		t.Error("short destination accepted")
	}
	if _, err := Unmarshal(want); err != nil {
		t.Fatal(err)
	}
	// uvarint length arithmetic across multi-byte sizes.
	big := New(Header{Pipeline: "p", Dims: grid.D1(1), Extra: 1 << 40})
	if err := big.Add("codes", make([]byte, 1<<15)); err != nil {
		t.Fatal(err)
	}
	bb, err := big.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(bb) != big.MarshaledSize() {
		t.Fatalf("big container: size %d, marshal %d", big.MarshaledSize(), len(bb))
	}
}

// TestAssemblyCRCSlotPosition double-checks SealChunk writes the table
// slot UnmarshalChunked reads: seal, parse, compare recorded CRCs.
func TestAssemblyCRCSlotPosition(t *testing.T) {
	chunks := [][]byte{[]byte("aaaa"), []byte("bbbbbb")}
	blob := scatterAssemble(t, ChunkedHeader{
		Pipeline: "p", Dims: grid.D3(4, 4, 6), EB: 1e-3, Planes: 3,
	}, chunks, []int{3, 3})
	c, err := UnmarshalChunked(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range c.Chunks {
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], ref.CRC)
		if ref.CRC == 0 {
			t.Errorf("chunk %d CRC slot still zero", i)
		}
		if _, err := c.Chunk(i); err != nil {
			t.Errorf("chunk %d: %v", i, err)
		}
	}
}

// TestWritersEnforceReaderLimits: the two writers of the shared header
// refuse the geometry their readers refuse (the same grid.Geometry check),
// before allocating a table or writing a prologue byte.
func TestWritersEnforceReaderLimits(t *testing.T) {
	for name, h := range map[string]ChunkedHeader{
		"dims product wraps":  {Pipeline: "p", Dims: grid.D2(1<<32, 1<<32), EB: 1, Planes: 1},
		"dims above 2^34":     {Pipeline: "p", Dims: grid.D1(1<<34 + 1), EB: 1, Planes: 1},
		"nominal planes 2^35": {Pipeline: "p", Dims: grid.D1(8), EB: 1, Planes: 1 << 35},
	} {
		if _, err := NewChunkedAssembly(h, []int{1}, []int{h.Dims.SlowExtent()}); !errors.Is(err, grid.ErrLimit) {
			t.Errorf("%s: NewChunkedAssembly = %v, want grid.ErrLimit", name, err)
		}
		var out bytes.Buffer
		if _, err := NewStreamWriter(&out, h); !errors.Is(err, grid.ErrLimit) || out.Len() != 0 {
			t.Errorf("%s: NewStreamWriter = %v after %d bytes, want grid.ErrLimit and nothing written", name, err, out.Len())
		}
	}
	n := grid.MaxChunks + 1
	h := ChunkedHeader{Pipeline: "p", Dims: grid.D1(n), EB: 1, Planes: 1}
	if _, err := NewChunkedAssembly(h, make([]int, n), make([]int, n)); !errors.Is(err, grid.ErrLimit) {
		t.Errorf("2^20+1 chunks: NewChunkedAssembly = %v, want grid.ErrLimit", err)
	}
}
