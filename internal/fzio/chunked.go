package fzio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"fzmod/internal/grid"
)

// This file defines the chunked container format, the on-disk shape of the
// block-parallel executor: the field is partitioned into slabs along its
// slowest-varying dimension and each slab is compressed independently into
// a regular (self-describing) FZModules container. The outer chunked
// container records the global geometry, the resolved error bound and a
// chunk table of per-chunk offsets, lengths, CRCs and plane counts, so the
// read path can validate the table up front and then decode every chunk in
// parallel without touching the others.

// ChunkedMagic identifies chunked FZModules containers.
const ChunkedMagic = "FZMC"

// ChunkedVersion is the chunked container format version writers emit.
// Version 2 extends each chunk-table entry with the chunk's SHA-256
// leaf hash and appends the Merkle root after the table (see merkle.go
// and docs/FORMAT.md §Integrity); readers accept versions 1 and 2, so
// v1 artifacts stay decodable everywhere.
const ChunkedVersion = 2

// ChunkedHeader carries the global metadata of a chunked container.
type ChunkedHeader struct {
	Pipeline string    // pipeline identifier, e.g. "fzmod-default"
	Dims     grid.Dims // full field geometry
	EB       float64   // resolved absolute error bound shared by all chunks
	RelEB    float64   // user-specified relative bound (0 if absolute)
	Planes   int       // nominal planes per chunk along the slowest dimension
}

// ChunkRef locates one chunk inside the container's payload area.
type ChunkRef struct {
	Offset int    // byte offset into the payload area
	Length int    // payload bytes
	CRC    uint32 // CRC32 (IEEE) of the chunk payload
	Planes int    // planes of the slowest dimension this chunk covers
	// Hash is the chunk's Merkle leaf hash (SHA-256 over 0x00 ‖ payload)
	// recorded by version ≥ 2 containers; all zero for v1 artifacts,
	// whose tables carry no hashes.
	Hash [HashSize]byte
}

// ChunkedContainer is a decoded chunked container: the header, the chunk
// table, and the (not yet CRC-verified) payload area. Chunk payloads are
// verified lazily by Chunk so the checks can run on the parallel read path.
type ChunkedContainer struct {
	Header ChunkedHeader
	Chunks []ChunkRef
	// Root is the Merkle root over the chunk table's leaf hashes for
	// version ≥ 2 containers; nil for v1 artifacts. UnmarshalChunked has
	// already checked it against the table entries, so a non-nil Root
	// means the table itself is tamper-evident.
	Root    []byte
	payload []byte
}

// IsChunked reports whether blob starts with the chunked container magic.
func IsChunked(blob []byte) bool {
	return len(blob) >= 4 && string(blob[:4]) == ChunkedMagic
}

// MarshalChunked serializes chunk payloads under a chunked header. planes
// gives the slowest-dimension extent each chunk covers; the extents must be
// positive and sum to the header geometry's slow extent.
//
// Layout: "FZMC" ‖ u16 version ‖ pipeline string ‖ uvarint dims X/Y/Z ‖
// EB bits ‖ RelEB bits ‖ uvarint nominal planes ‖ uvarint chunk count;
// then per chunk: uvarint offset, uvarint length, CRC32(payload), uvarint
// planes, SHA-256 leaf hash (version ≥ 2); then the 32-byte Merkle root
// (version ≥ 2); then the concatenated chunk payloads.
//
// MarshalChunked is the gather path (chunk payloads already materialized:
// stream reassembly, salvage, and the reference the scatter-path tests
// compare against); it lowers onto the same layout engine as the scatter
// path, so the two produce identical bytes for identical chunk contents.
func MarshalChunked(h ChunkedHeader, chunks [][]byte, planes []int) ([]byte, error) {
	lengths := make([]int, len(chunks))
	for i, c := range chunks {
		lengths[i] = len(c)
	}
	a, err := NewChunkedAssembly(h, lengths, planes)
	if err != nil {
		return nil, err
	}
	for i, c := range chunks {
		copy(a.ChunkSlice(i), c)
		a.SealChunk(i)
	}
	return a.Bytes(), nil
}

// ChunkedAssembly is the zero-copy (scatter) writer of the chunked
// container: the full layout — prologue, chunk table offsets and lengths,
// payload area — is computed up front from the chunks' exact encoded
// sizes, so each worker serializes its chunk directly into its disjoint
// ChunkSlice window of the final buffer and then seals the table CRC,
// with no per-chunk staging blob and no serial gather copy.
type ChunkedAssembly struct {
	buf      []byte
	start    int   // payload area offset
	offsets  []int // per chunk, relative to start
	lengths  []int
	crcOffs  []int // absolute offset of each chunk's table CRC slot
	hashOffs []int // absolute offset of each chunk's table hash slot
	rootOff  int   // absolute offset of the Merkle root slot
}

// NewChunkedAssembly validates the geometry exactly as MarshalChunked does
// and writes the container prologue plus the chunk table (CRC slots
// zeroed) into a single exact-size buffer.
func NewChunkedAssembly(h ChunkedHeader, lengths, planes []int) (*ChunkedAssembly, error) {
	if err := checkWriteHeader(h, len(lengths)); err != nil {
		return nil, err
	}
	if len(lengths) == 0 {
		return nil, fmt.Errorf("fzio: chunked container needs at least one chunk")
	}
	if len(lengths) != len(planes) {
		return nil, fmt.Errorf("fzio: %d chunks but %d plane counts", len(lengths), len(planes))
	}
	total := 0
	for i, k := range planes {
		if k <= 0 {
			return nil, fmt.Errorf("fzio: chunk %d covers %d planes", i, k)
		}
		total += k
	}
	if total != h.Dims.SlowExtent() {
		return nil, fmt.Errorf("fzio: chunks cover %d planes, field has %d", total, h.Dims.SlowExtent())
	}
	// Exact layout: prologue + table size depend only on the header values
	// and the chunk lengths, both known here.
	size := headerSize(ChunkedMagic, h) + uvarintLen(uint64(len(lengths)))
	payload := 0
	for i, l := range lengths {
		if l < 0 {
			return nil, fmt.Errorf("fzio: chunk %d has negative length", i)
		}
		size += uvarintLen(uint64(payload)) + uvarintLen(uint64(l)) + 4 + uvarintLen(uint64(planes[i])) + HashSize
		payload += l
	}
	size += HashSize // Merkle root after the table
	size += payload

	a := &ChunkedAssembly{
		buf:      make([]byte, 0, size),
		offsets:  make([]int, len(lengths)),
		lengths:  append([]int(nil), lengths...),
		crcOffs:  make([]int, len(lengths)),
		hashOffs: make([]int, len(lengths)),
	}
	out := appendHeader(a.buf, ChunkedMagic, ChunkedVersion, h)
	out = binary.AppendUvarint(out, uint64(len(lengths)))
	off := 0
	for i, l := range lengths {
		a.offsets[i] = off
		out = binary.AppendUvarint(out, uint64(off))
		out = binary.AppendUvarint(out, uint64(l))
		a.crcOffs[i] = len(out)
		out = binary.LittleEndian.AppendUint32(out, 0) // sealed by SealChunk
		out = binary.AppendUvarint(out, uint64(planes[i]))
		a.hashOffs[i] = len(out)
		out = append(out, make([]byte, HashSize)...) // sealed by SealChunk
		off += l
	}
	a.rootOff = len(out)
	out = append(out, make([]byte, HashSize)...) // finalized by Bytes
	a.start = len(out)
	if a.start+payload != size {
		return nil, fmt.Errorf("fzio: assembly layout drifted: %d != %d", a.start+payload, size)
	}
	a.buf = out[:size]
	return a, nil
}

// NumChunks returns the chunk count of the layout.
func (a *ChunkedAssembly) NumChunks() int { return len(a.lengths) }

// ChunkSlice returns chunk i's disjoint window of the payload area; the
// chunk's serializer fills it completely and then calls SealChunk. Safe to
// use concurrently for distinct indices.
func (a *ChunkedAssembly) ChunkSlice(i int) []byte {
	lo := a.start + a.offsets[i]
	return a.buf[lo : lo+a.lengths[i] : lo+a.lengths[i]]
}

// SealChunk computes chunk i's payload CRC and Merkle leaf hash and
// writes its chunk-table slots. Call once after ChunkSlice(i) has been
// filled; distinct chunks may seal concurrently (the table slots are
// disjoint).
func (a *ChunkedAssembly) SealChunk(i int) {
	payload := a.ChunkSlice(i)
	binary.LittleEndian.PutUint32(a.buf[a.crcOffs[i]:], crc32.ChecksumIEEE(payload))
	leaf := LeafHash(payload)
	copy(a.buf[a.hashOffs[i]:], leaf[:])
}

// Bytes finalizes the Merkle root over the sealed leaf hashes and
// returns the assembled container. Valid once every chunk has been
// filled and sealed; idempotent (the root is recomputed from the table
// slots each call).
func (a *ChunkedAssembly) Bytes() []byte {
	refs := make([]ChunkRef, len(a.lengths))
	for i := range refs {
		copy(refs[i].Hash[:], a.buf[a.hashOffs[i]:])
	}
	root := merkleRoot(refs)
	copy(a.buf[a.rootOff:], root[:])
	return a.buf
}

// UnmarshalChunked parses a chunked container, verifying magic, version and
// the consistency of the chunk table: offsets must be contiguous from zero
// and every chunk must lie inside the payload area. Chunk payload CRCs are
// checked by Chunk, not here, so decoders can verify them in parallel.
func UnmarshalChunked(blob []byte) (*ChunkedContainer, error) {
	hdr, chunks, root, rootOK, pos, err := parseChunkedTable(blob, int64(len(blob)))
	if err == nil {
		err = checkRoot(root, rootOK)
	}
	if err != nil {
		return nil, err
	}
	last := chunks[len(chunks)-1]
	total := last.Offset + last.Length
	if pos+total > len(blob) {
		return nil, fmt.Errorf("fzio: payload truncated: need %d bytes, have %d", total, len(blob)-pos)
	}
	return &ChunkedContainer{Header: hdr, Chunks: chunks, Root: root, payload: blob[pos : pos+total]}, nil
}

// parseChunkedTable parses the FZMC prologue and chunk table from blob,
// which may be only a prefix of the container: running off it surfaces as
// a truncatedErr, so FetchIndex can grow its prefix and retry, while
// UnmarshalChunked reports it verbatim. maxPayload bounds the cumulative
// chunk payload — the blob length for in-memory parses, the artifact size
// for index-only ones. Returns the header, the validated chunk table
// (offsets relative to the payload area), the Merkle root (nil for v1
// containers) with chunkIndex's rootOK, and the payload area's byte offset.
func parseChunkedTable(blob []byte, maxPayload int64) (hdr ChunkedHeader, chunks []ChunkRef, root []byte, rootOK bool, pos int, err error) {
	c := cursor{b: blob}
	hdr, version := c.header(ChunkedMagic, ChunkedVersion)
	chunks, root, rootOK = c.chunkIndex(version, false, hdr.Dims.SlowExtent(), 0, maxPayload)
	return hdr, chunks, root, rootOK, c.pos, c.err
}

// NumChunks returns the chunk count.
func (c *ChunkedContainer) NumChunks() int { return len(c.Chunks) }

// Chunk returns chunk i's payload after verifying its CRC; a mismatch is an
// error wrapping ErrCRCMismatch. Safe to call concurrently for distinct (or
// identical) indices.
func (c *ChunkedContainer) Chunk(i int) ([]byte, error) {
	if i < 0 || i >= len(c.Chunks) {
		return nil, fmt.Errorf("fzio: chunk index %d out of range [0,%d)", i, len(c.Chunks))
	}
	ref := c.Chunks[i]
	data := c.payload[ref.Offset : ref.Offset+ref.Length]
	if crc32.ChecksumIEEE(data) != ref.CRC {
		return nil, fmt.Errorf("%w: chunk %d (corrupt container)", ErrCRCMismatch, i)
	}
	return data, nil
}
