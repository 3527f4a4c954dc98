package fzio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"math"
	"sync"

	"fzmod/internal/grid"
)

// This file builds a ContainerIndex — the chunk map a region read plans
// against — from a ChunkFetcher without ever transferring chunk payloads.
// FZMC containers carry the chunk table up front, so the index comes from a
// growing prefix; FZMS containers defer it to the CRC'd trailer, so the
// index comes from a fixed-size tail plus the prologue; monolithic FZMD
// containers degrade to a single whole-artifact chunk. All three flavors
// therefore serve random-access reads through one planner, and only the
// bytes the format spec (docs/FORMAT.md) designates as index are fetched.

// Container flavors distinguished by a ContainerIndex.
const (
	// FlavorChunked is a random-access FZMC container.
	FlavorChunked = "chunked"
	// FlavorStream is an append-mode FZMS container.
	FlavorStream = "stream"
	// FlavorMonolithic is a single FZMD container treated as one chunk.
	FlavorMonolithic = "monolithic"
)

// indexPrefixBytes is the initial (and growth-step) prefix fetched while
// parsing a front-loaded index; it covers the prologue plus a few hundred
// chunk-table entries in one round trip.
const indexPrefixBytes = 4096

// ContainerIndex is the chunk map of one container artifact: the global
// header, and for every chunk its absolute payload byte range in the
// artifact, its payload CRC, and the planes of the slowest dimension it
// covers. It is the only part of a container a region read must have
// resident; payloads are fetched per intersecting chunk.
type ContainerIndex struct {
	// Flavor is the container format the index came from (FlavorChunked,
	// FlavorStream or FlavorMonolithic).
	Flavor string
	// Header is the container's global metadata.
	Header ChunkedHeader
	// Chunks locates each chunk payload; unlike ChunkedContainer's table,
	// Offset here is absolute in the artifact, so ChunkFetcher.ReadRange
	// can serve it directly.
	Chunks []ChunkRef
	// Root is the container's Merkle root over the chunk leaf hashes,
	// recorded by version ≥ 2 FZMC and FZMS artifacts; nil for v1 and
	// monolithic artifacts, which carry no integrity tree. FetchIndex
	// has already checked a non-nil Root against the table's own leaf
	// hashes, so the index is tamper-evident as a whole; per-payload
	// verification is VerifyProof.
	Root []byte
	// ArtifactSize is the container's total byte length.
	ArtifactSize int64
	// Key is a content fingerprint of the header and chunk table (CRC64
	// over their canonical serialization): two indexes with equal keys
	// describe byte-identical chunk layouts, which is what lets a shared
	// decoded-slab cache serve every reader of the same artifact.
	Key uint64

	treeOnce sync.Once
	tree     *MerkleTree
	treeErr  error
}

// NumChunks returns the chunk count.
func (ix *ContainerIndex) NumChunks() int { return len(ix.Chunks) }

// VerifyChunk checks a fetched payload for chunk i against the index:
// exact length, and — for flavors whose index records payload CRCs — the
// CRC32. Monolithic artifacts have no container-level CRC; their integrity
// is covered by the per-segment CRCs Unmarshal verifies.
func (ix *ContainerIndex) VerifyChunk(i int, payload []byte) error {
	if i < 0 || i >= len(ix.Chunks) {
		return fmt.Errorf("fzio: chunk index %d out of range [0,%d)", i, len(ix.Chunks))
	}
	ref := ix.Chunks[i]
	if len(payload) != ref.Length {
		return fmt.Errorf("fzio: chunk %d payload is %d bytes, index records %d", i, len(payload), ref.Length)
	}
	if ix.Flavor == FlavorMonolithic {
		return nil
	}
	if crc32.ChecksumIEEE(payload) != ref.CRC {
		return fmt.Errorf("%w: chunk %d (corrupt or tampered payload)", ErrCRCMismatch, i)
	}
	return nil
}

// merkleTree lazily builds (once) the Merkle tree over the index's leaf
// hashes. Safe for concurrent use — the region read path verifies
// chunks from many goroutines.
func (ix *ContainerIndex) merkleTree() (*MerkleTree, error) {
	ix.treeOnce.Do(func() {
		leaves := make([][HashSize]byte, len(ix.Chunks))
		for i, ref := range ix.Chunks {
			leaves[i] = ref.Hash
		}
		ix.tree, ix.treeErr = NewMerkleTree(leaves)
	})
	return ix.tree, ix.treeErr
}

// Proof returns chunk i's Merkle inclusion proof — the per-level
// sibling hashes a client folds a fetched payload's leaf hash through
// to reproduce Root. Errors when the index carries no root (v1 or
// monolithic artifact).
func (ix *ContainerIndex) Proof(i int) ([]ProofStep, error) {
	if ix.Root == nil {
		return nil, fmt.Errorf("fzio: %s artifact carries no Merkle root", ix.Flavor)
	}
	t, err := ix.merkleTree()
	if err != nil {
		return nil, err
	}
	return t.Proof(i)
}

// VerifyProof checks a fetched payload for chunk i against the
// container's Merkle root: the payload's leaf hash must match the
// table's, and its inclusion proof must fold to Root. Returns an
// ErrProofMismatch-wrapped error on divergence. Indexes without a root
// (v1 or monolithic artifacts) verify vacuously — there is nothing to
// prove against — so callers can apply it unconditionally; HasProofs
// reports whether the check is substantive.
func (ix *ContainerIndex) VerifyProof(i int, payload []byte) error {
	if ix.Root == nil {
		return nil
	}
	if i < 0 || i >= len(ix.Chunks) {
		return fmt.Errorf("fzio: chunk index %d out of range [0,%d)", i, len(ix.Chunks))
	}
	leaf := LeafHash(payload)
	if leaf != ix.Chunks[i].Hash {
		return fmt.Errorf("%w: chunk %d payload hash diverges from the index", ErrProofMismatch, i)
	}
	proof, err := ix.Proof(i)
	if err != nil {
		return err
	}
	var root [HashSize]byte
	copy(root[:], ix.Root)
	if !VerifyProof(leaf, proof, root) {
		return fmt.Errorf("%w: chunk %d inclusion proof does not fold to the root", ErrProofMismatch, i)
	}
	return nil
}

// HasProofs reports whether the index carries a Merkle root, i.e.
// whether VerifyProof performs a substantive check.
func (ix *ContainerIndex) HasProofs() bool { return ix.Root != nil }

// truncatedErr marks a parse that ran off the end of the bytes at hand —
// corruption when the whole artifact was present, "fetch a longer prefix"
// when only a prefix was.
type truncatedErr struct{ msg string }

func (e truncatedErr) Error() string { return e.msg }

// truncf builds a truncatedErr.
func truncf(format string, args ...any) error {
	return truncatedErr{msg: fmt.Sprintf(format, args...)}
}

// isTruncated reports whether err marks a parse that needs more bytes.
func isTruncated(err error) bool {
	var t truncatedErr
	return errors.As(err, &t)
}

// readStringT is readString returning a truncatedErr when the string runs
// off the buffer, so prefix parsers can distinguish "short prefix" from
// real corruption.
func readStringT(blob []byte, pos int) (string, int, error) {
	n, k := binary.Uvarint(blob[pos:])
	if k <= 0 {
		return "", 0, truncf("fzio: bad string length")
	}
	if n > 1<<16 {
		return "", 0, fmt.Errorf("fzio: bad string length")
	}
	pos += k
	if pos+int(n) > len(blob) {
		return "", 0, truncf("fzio: truncated string")
	}
	return string(blob[pos : pos+int(n)]), pos + int(n), nil
}

// FetchIndex reads just enough of the artifact behind f to build its
// ContainerIndex: a growing prefix for FZMC and FZMD (header plus chunk
// table), the prologue plus the trailer for FZMS. Chunk payloads are never
// transferred.
func FetchIndex(f ChunkFetcher) (*ContainerIndex, error) {
	size, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("fzio: sizing artifact: %w", err)
	}
	if size < 6 {
		return nil, fmt.Errorf("fzio: artifact of %d bytes is not an FZModules container", size)
	}
	prefix, err := fetchPrefix(f, size, nil)
	if err != nil {
		return nil, err
	}
	switch {
	case IsChunked(prefix):
		return fetchChunkedIndex(f, size, prefix)
	case IsStream(prefix):
		return fetchStreamIndex(f, size, prefix)
	case string(prefix[:4]) == Magic:
		return fetchMonolithicIndex(f, size, prefix)
	default:
		return nil, fmt.Errorf("fzio: unrecognized container magic %q", prefix[:4])
	}
}

// fetchPrefix returns a prefix of the artifact at least one growth step
// longer than the current one (the whole artifact at most).
func fetchPrefix(f ChunkFetcher, size int64, cur []byte) ([]byte, error) {
	if int64(len(cur)) >= size {
		return nil, fmt.Errorf("fzio: container index truncated")
	}
	n := int64(len(cur)) * 2
	if n < indexPrefixBytes {
		n = indexPrefixBytes
	}
	if n > size {
		n = size
	}
	blob, err := fetchExact(f, 0, int(n), "container index")
	if err != nil {
		return nil, err
	}
	return blob, nil
}

// fetchExact reads a range and enforces the ChunkFetcher contract: exactly
// n bytes or an error, so a misbehaving fetcher surfaces as a wrapped
// error instead of a misparse.
func fetchExact(f ChunkFetcher, off int64, n int, what string) ([]byte, error) {
	blob, err := f.ReadRange(off, n)
	if err != nil {
		return nil, fmt.Errorf("fzio: fetching %s: %w", what, err)
	}
	if len(blob) != n {
		return nil, fmt.Errorf("fzio: fetching %s: fetcher returned %d of %d bytes at %d", what, len(blob), n, off)
	}
	return blob, nil
}

// fetchChunkedIndex parses the FZMC prologue and chunk table from a
// growing prefix and rebases chunk offsets to absolute artifact offsets.
func fetchChunkedIndex(f ChunkFetcher, size int64, prefix []byte) (*ContainerIndex, error) {
	for {
		hdr, chunks, root, payloadStart, err := parseChunkedTable(prefix, size)
		if err == nil {
			payload := int64(0)
			for i := range chunks {
				chunks[i].Offset += payloadStart
				payload += int64(chunks[i].Length)
			}
			if int64(payloadStart)+payload > size {
				return nil, fmt.Errorf("fzio: payload truncated: need %d bytes, have %d",
					payload, size-int64(payloadStart))
			}
			return finishIndex(FlavorChunked, hdr, chunks, root, size), nil
		}
		if !isTruncated(err) {
			return nil, err
		}
		if prefix, err = fetchPrefix(f, size, prefix); err != nil {
			return nil, err
		}
	}
}

// fetchStreamIndex builds the index of an FZMS stream from its prologue
// and CRC'd index trailer, then recomputes every frame's absolute payload
// offset from the recorded lengths — the frame headers are uvarint-exact,
// so the offsets are arithmetic, not a scan.
func fetchStreamIndex(f ChunkFetcher, size int64, prefix []byte) (*ContainerIndex, error) {
	// Prologue (with its own CRC) from the prefix.
	hdr, version, prologueLen, err := parseStreamPrologue(prefix)
	for isTruncated(err) {
		if prefix, err = fetchPrefix(f, size, prefix); err != nil {
			return nil, err
		}
		hdr, version, prologueLen, err = parseStreamPrologue(prefix)
	}
	if err != nil {
		return nil, err
	}

	// Tail: CRC32(index) ‖ u64 trailer length ‖ "FZME".
	if size < int64(prologueLen)+1+16 {
		return nil, fmt.Errorf("fzio: stream too short for an index trailer")
	}
	tail, err := fetchExact(f, size-16, 16, "stream trailer")
	if err != nil {
		return nil, err
	}
	if string(tail[12:16]) != streamEndMagic {
		return nil, fmt.Errorf("fzio: missing stream end magic (truncated or still-streaming container)")
	}
	trailerLen := binary.LittleEndian.Uint64(tail[4:12]) // len(index) + CRC
	idxCRC := binary.LittleEndian.Uint32(tail[:4])
	if trailerLen < 5 || int64(trailerLen)+12 > size-int64(prologueLen) {
		return nil, fmt.Errorf("fzio: bad stream trailer length %d", trailerLen)
	}
	idxLen := int(trailerLen) - 4
	idxStart := size - 16 - int64(idxLen)
	idx, err := fetchExact(f, idxStart, idxLen, "stream index")
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(idx) != idxCRC {
		return nil, fmt.Errorf("fzio: stream trailer CRC mismatch")
	}

	// Parse the index table: count, then length/planes/CRC per chunk.
	pos := 0
	nChunks, k := binary.Uvarint(idx[pos:])
	if k <= 0 || nChunks == 0 || nChunks > maxChunksLimit {
		return nil, fmt.Errorf("fzio: bad stream chunk count")
	}
	pos += k
	chunks := make([]ChunkRef, nChunks)
	totalPlanes := 0
	off := int64(prologueLen)
	for i := range chunks {
		length, k := binary.Uvarint(idx[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("fzio: truncated stream index")
		}
		pos += k
		planes, k := binary.Uvarint(idx[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("fzio: truncated stream index")
		}
		pos += k
		if pos+4 > len(idx) {
			return nil, fmt.Errorf("fzio: truncated stream index")
		}
		crc := binary.LittleEndian.Uint32(idx[pos:])
		pos += 4
		if length == 0 || length > maxStreamChunkBytes {
			return nil, fmt.Errorf("fzio: stream chunk %d length %d out of range", i, length)
		}
		if planes == 0 || planes > maxFieldElems {
			return nil, fmt.Errorf("fzio: stream chunk %d plane count %d out of range", i, planes)
		}
		// The frame header (length ‖ planes ‖ CRC32) precedes each payload;
		// its size follows exactly from the recorded values.
		off += int64(uvarintLen(length)) + int64(uvarintLen(planes)) + 4
		chunks[i] = ChunkRef{Offset: int(off), Length: int(length), CRC: crc, Planes: int(planes)}
		if version >= 2 {
			if pos+HashSize > len(idx) {
				return nil, fmt.Errorf("fzio: truncated stream index")
			}
			copy(chunks[i].Hash[:], idx[pos:])
			pos += HashSize
		}
		off += int64(length)
		totalPlanes += int(planes)
	}
	var root []byte
	if version >= 2 {
		if pos+HashSize > len(idx) {
			return nil, fmt.Errorf("fzio: truncated stream index")
		}
		root = append([]byte(nil), idx[pos:pos+HashSize]...)
		pos += HashSize
		// The root must reproduce from the entries' own leaf hashes: a
		// tampered trailer surfaces before any payload is trusted.
		want, err := merkleRoot(chunks)
		if err != nil {
			return nil, err
		}
		if string(root) != string(want[:]) {
			return nil, fmt.Errorf("%w: stream index root disagrees with entries", ErrProofMismatch)
		}
	}
	if pos != len(idx) {
		return nil, fmt.Errorf("fzio: stream index has %d trailing bytes", len(idx)-pos)
	}
	if totalPlanes != hdr.Dims.SlowExtent() {
		return nil, fmt.Errorf("fzio: chunks cover %d planes, field has %d", totalPlanes, hdr.Dims.SlowExtent())
	}
	// The end marker (uvarint 0, one byte) sits between the last frame and
	// the index; the reconstructed frame walk must land exactly there.
	if off+1 != idxStart {
		return nil, fmt.Errorf("fzio: stream frames end at %d, index begins at %d", off+1, idxStart)
	}
	return finishIndex(FlavorStream, hdr, chunks, root, size), nil
}

// parseStreamPrologue parses and CRC-verifies the FZMS prologue from a
// prefix, returning the header, the format version, and the prologue's
// byte length.
func parseStreamPrologue(blob []byte) (ChunkedHeader, int, int, error) {
	var hdr ChunkedHeader
	if len(blob) < 6 {
		return hdr, 0, 0, truncf("fzio: truncated stream prologue")
	}
	if string(blob[:4]) != StreamMagic {
		return hdr, 0, 0, fmt.Errorf("fzio: not a streaming FZModules container")
	}
	version := int(binary.LittleEndian.Uint16(blob[4:]))
	if version != streamVersionLegacy && version != StreamVersion {
		return hdr, 0, 0, fmt.Errorf("fzio: unsupported stream version %d", version)
	}
	pos := 6
	var err error
	if hdr.Pipeline, pos, err = readStringT(blob, pos); err != nil {
		return hdr, 0, 0, err
	}
	dims := [3]uint64{}
	nElems := uint64(1)
	for i := range dims {
		v, k := binary.Uvarint(blob[pos:])
		if k <= 0 {
			return hdr, 0, 0, truncf("fzio: truncated stream dims")
		}
		dims[i], pos = v, pos+k
		if v > maxFieldElems || (v > 0 && nElems > maxFieldElems/v) {
			return hdr, 0, 0, fmt.Errorf("fzio: declared field too large")
		}
		if v > 0 {
			nElems *= v
		}
	}
	hdr.Dims = grid.Dims{X: int(dims[0]), Y: int(dims[1]), Z: int(dims[2])}
	if !hdr.Dims.Valid() {
		return hdr, 0, 0, fmt.Errorf("fzio: invalid dims %v", hdr.Dims)
	}
	if pos+16 > len(blob) {
		return hdr, 0, 0, truncf("fzio: truncated stream prologue")
	}
	hdr.EB = math.Float64frombits(binary.LittleEndian.Uint64(blob[pos:]))
	hdr.RelEB = math.Float64frombits(binary.LittleEndian.Uint64(blob[pos+8:]))
	pos += 16
	nominal, k := binary.Uvarint(blob[pos:])
	if k <= 0 {
		return hdr, 0, 0, truncf("fzio: truncated stream prologue")
	}
	if nominal > maxFieldElems {
		return hdr, 0, 0, fmt.Errorf("fzio: bad nominal plane count")
	}
	hdr.Planes = int(nominal)
	pos += k
	if pos+4 > len(blob) {
		return hdr, 0, 0, truncf("fzio: truncated prologue CRC")
	}
	want := crc32.ChecksumIEEE(appendStreamPrologueV(nil, hdr, version))
	if binary.LittleEndian.Uint32(blob[pos:]) != want {
		return hdr, 0, 0, fmt.Errorf("fzio: stream prologue CRC mismatch")
	}
	return hdr, version, pos + 4, nil
}

// fetchMonolithicIndex maps an FZMD container to a one-chunk index
// covering the whole artifact, so the region planner serves monolithic
// containers through the same path. The payload has no container-level
// CRC (VerifyChunk skips it); Unmarshal's per-segment CRCs cover
// integrity at decode time.
func fetchMonolithicIndex(f ChunkFetcher, size int64, prefix []byte) (*ContainerIndex, error) {
	hdr, err := ParseMonolithicHeader(prefix)
	for isTruncated(err) {
		if prefix, err = fetchPrefix(f, size, prefix); err != nil {
			return nil, err
		}
		hdr, err = ParseMonolithicHeader(prefix)
	}
	if err != nil {
		return nil, err
	}
	if size > int64(maxStreamChunkBytes) {
		return nil, fmt.Errorf("fzio: monolithic artifact of %d bytes exceeds the single-chunk limit", size)
	}
	chunks := []ChunkRef{{Offset: 0, Length: int(size), Planes: hdr.Dims.SlowExtent()}}
	return finishIndex(FlavorMonolithic, hdr, chunks, nil, size), nil
}

// ParseMonolithicHeader reads the FZMD header fields shared with the
// chunked formats (pipeline, dims, bounds) from a prefix.
func ParseMonolithicHeader(blob []byte) (ChunkedHeader, error) {
	var hdr ChunkedHeader
	if len(blob) < 6 || string(blob[:4]) != Magic {
		return hdr, fmt.Errorf("fzio: not an FZModules container")
	}
	if v := binary.LittleEndian.Uint16(blob[4:]); v != Version {
		return hdr, fmt.Errorf("fzio: unsupported version %d", v)
	}
	pos := 6
	var err error
	if hdr.Pipeline, pos, err = readStringT(blob, pos); err != nil {
		return hdr, err
	}
	dims := [3]uint64{}
	nElems := uint64(1)
	for i := range dims {
		v, k := binary.Uvarint(blob[pos:])
		if k <= 0 {
			return hdr, truncf("fzio: truncated dims")
		}
		dims[i], pos = v, pos+k
		if v > maxFieldElems || (v > 0 && nElems > maxFieldElems/v) {
			return hdr, fmt.Errorf("fzio: declared field too large")
		}
		if v > 0 {
			nElems *= v
		}
	}
	hdr.Dims = grid.Dims{X: int(dims[0]), Y: int(dims[1]), Z: int(dims[2])}
	if !hdr.Dims.Valid() {
		return hdr, fmt.Errorf("fzio: invalid dims %v", hdr.Dims)
	}
	if pos+16 > len(blob) {
		return hdr, truncf("fzio: truncated header")
	}
	hdr.EB = math.Float64frombits(binary.LittleEndian.Uint64(blob[pos:]))
	hdr.RelEB = math.Float64frombits(binary.LittleEndian.Uint64(blob[pos+8:]))
	hdr.Planes = hdr.Dims.SlowExtent()
	return hdr, nil
}

// finishIndex stamps the content key and artifact size onto an index.
func finishIndex(flavor string, hdr ChunkedHeader, chunks []ChunkRef, root []byte, size int64) *ContainerIndex {
	ix := &ContainerIndex{Flavor: flavor, Header: hdr, Chunks: chunks, Root: root, ArtifactSize: size}
	ix.Key = contentKey(ix)
	return ix
}

// contentKey fingerprints an index: CRC64 (ECMA) over the canonical
// header serialization plus every chunk's offset/length/CRC/planes. Two
// artifacts with the same key have byte-identical chunk layouts, so a
// shared decoded-slab cache can serve both from one set of entries.
func contentKey(ix *ContainerIndex) uint64 {
	buf := appendStreamPrologue(nil, ix.Header)
	buf = append(buf, ix.Flavor...)
	for _, ref := range ix.Chunks {
		buf = binary.AppendUvarint(buf, uint64(ref.Offset))
		buf = binary.AppendUvarint(buf, uint64(ref.Length))
		buf = binary.LittleEndian.AppendUint32(buf, ref.CRC)
		buf = binary.AppendUvarint(buf, uint64(ref.Planes))
	}
	return crc64.Checksum(buf, crc64Table)
}

var crc64Table = crc64.MakeTable(crc64.ECMA)
