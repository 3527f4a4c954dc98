package fzio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
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
	// verification is VerifyChunk, which compares leaf hashes.
	Root []byte
	// ArtifactSize is the container's total byte length.
	ArtifactSize int64
	// Key is a content fingerprint of the header and chunk table (CRC64
	// over their canonical serialization): two indexes with equal keys
	// describe byte-identical chunk layouts, which is what lets a shared
	// decoded-slab cache serve every reader of the same artifact.
	Key uint64
}

// NumChunks returns the chunk count.
func (ix *ContainerIndex) NumChunks() int { return len(ix.Chunks) }

// ErrCRCMismatch marks a payload whose CRC32 contradicts the container
// index: corruption or tampering, detected and never silently decoded.
var ErrCRCMismatch = errors.New("fzio: CRC mismatch")

// VerifyChunk is the acceptance rule every read door applies to chunk i's
// payload before decoding it: exact length; the CRC32 on flavors whose
// index records payload CRCs (FZMC, FZMS), refused with ErrCRCMismatch;
// and the SHA-256 leaf hash whenever the index carries a Merkle root
// (VerifyProof), refused with ErrProofMismatch. Monolithic artifacts record
// neither; their integrity is the per-segment CRCs Unmarshal verifies.
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
	return ix.VerifyProof(i, payload)
}

// VerifyProof is VerifyChunk's leaf-hash half: chunk i's payload must hash
// to the leaf its chunk table records (FetchIndex has bound the leaves to
// Root), or the error wraps ErrProofMismatch. Without a root (v1 or
// monolithic artifacts) it verifies vacuously; see HasProofs.
func (ix *ContainerIndex) VerifyProof(i int, payload []byte) error {
	if ix.Root == nil {
		return nil
	}
	if i < 0 || i >= len(ix.Chunks) {
		return fmt.Errorf("fzio: chunk index %d out of range [0,%d)", i, len(ix.Chunks))
	}
	if LeafHash(payload) != ix.Chunks[i].Hash {
		return fmt.Errorf("%w: chunk %d payload hash diverges from the index", ErrProofMismatch, i)
	}
	return nil
}

// HasProofs reports whether the index carries a Merkle root (and with
// it per-chunk leaf hashes), i.e. whether VerifyProof performs a
// substantive check.
func (ix *ContainerIndex) HasProofs() bool { return ix.Root != nil }

// FetchIndex reads just enough of the artifact behind f to build its
// ContainerIndex: a growing prefix for FZMC and FZMD (header plus chunk
// table), the prologue plus the trailer for FZMS. Chunk payloads are never
// transferred.
func FetchIndex(f ChunkFetcher) (*ContainerIndex, error) {
	size, err := artifactSize(f)
	if err != nil {
		return nil, err
	}
	prefix, err := fetchPrefix(f, size, nil)
	if err != nil {
		return nil, err
	}
	flavor, err := sniff(prefix)
	if err != nil {
		return nil, err
	}
	for {
		var ix *ContainerIndex
		switch flavor {
		case FlavorChunked:
			ix, err = chunkedIndex(prefix, size)
		case FlavorStream:
			ix, err = streamIndex(f, prefix, size)
		default:
			ix, err = monolithicIndex(prefix, size)
		}
		if !isTruncated(err) {
			return ix, err
		}
		if prefix, err = fetchPrefix(f, size, prefix); err != nil {
			return nil, err
		}
	}
}

// artifactSize sizes the artifact behind f, refusing one too short to
// hold a magic and version.
func artifactSize(f ChunkFetcher) (int64, error) {
	size, err := f.Size()
	if err != nil {
		return 0, fmt.Errorf("fzio: sizing artifact: %w", err)
	}
	if size < 6 {
		return 0, fmt.Errorf("fzio: artifact of %d bytes is not an FZModules container", size)
	}
	return size, nil
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
	return fetchExact(f, 0, int(n), "container index")
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

// chunkedIndex parses the FZMC prologue and chunk table from a prefix and
// rebases chunk offsets to absolute artifact offsets.
func chunkedIndex(prefix []byte, size int64) (*ContainerIndex, error) {
	hdr, chunks, root, rootOK, payloadStart, err := parseChunkedTable(prefix, size)
	if err == nil {
		err = checkRoot(root, rootOK)
	}
	if err != nil {
		return nil, err
	}
	for i := range chunks {
		chunks[i].Offset += payloadStart
	}
	last := chunks[len(chunks)-1]
	if end := int64(last.Offset) + int64(last.Length); end > size {
		return nil, fmt.Errorf("fzio: payload truncated: need %d bytes, have %d",
			end-int64(payloadStart), size-int64(payloadStart))
	}
	return finishIndex(FlavorChunked, hdr, chunks, root, size), nil
}

// streamIndex builds the index of an FZMS stream from its prologue (with
// its own CRC, from the prefix) and its CRC'd index trailer.
func streamIndex(f ChunkFetcher, prefix []byte, size int64) (*ContainerIndex, error) {
	hdr, version, prologueLen, err := parseStreamPrologue(prefix)
	if err != nil {
		return nil, err
	}
	chunks, root, rootOK, err := fetchStreamTrailer(f, size, hdr, version, prologueLen)
	if err == nil {
		err = checkRoot(root, rootOK)
	}
	if err != nil {
		return nil, err
	}
	return finishIndex(FlavorStream, hdr, chunks, root, size), nil
}

// fetchStreamTrailer locates the FZMS index through the artifact's fixed
// tail — CRC32(index) ‖ u64 trailer length ‖ "FZME" — and parses it with
// every frame's absolute payload offset: the frame headers are
// uvarint-exact, so the offsets are arithmetic, not a scan. The frames so
// reconstructed must end exactly at the end marker ahead of the index.
func fetchStreamTrailer(f ChunkFetcher, size int64, hdr ChunkedHeader, version, prologueLen int) ([]ChunkRef, []byte, bool, error) {
	body := size - int64(prologueLen) - 16 // frames ‖ end marker ‖ index
	if body < 1 {
		return nil, nil, false, fmt.Errorf("fzio: stream too short for an index trailer")
	}
	tail, err := fetchExact(f, size-16, 16, "stream trailer")
	if err != nil {
		return nil, nil, false, err
	}
	if string(tail[12:]) != streamEndMagic {
		return nil, nil, false, fmt.Errorf("fzio: missing stream end magic (truncated or still-streaming container)")
	}
	trailerLen := binary.LittleEndian.Uint64(tail[4:12]) // len(index) + CRC
	if trailerLen < 5 || trailerLen-4 > uint64(body) {
		return nil, nil, false, fmt.Errorf("fzio: bad stream trailer length %d", trailerLen)
	}
	idxLen := int(trailerLen) - 4
	idxStart := size - 16 - int64(idxLen)
	idx, err := fetchExact(f, idxStart, idxLen, "stream index")
	if err != nil {
		return nil, nil, false, err
	}
	if crc32.ChecksumIEEE(idx) != binary.LittleEndian.Uint32(tail[:4]) {
		return nil, nil, false, fmt.Errorf("fzio: stream trailer CRC mismatch")
	}
	// The end marker (uvarint 0, one byte) sits between the last frame and
	// the index.
	c := cursor{b: idx}
	chunks, root, rootOK := c.chunkIndex(version, true, hdr.Dims.SlowExtent(), int64(prologueLen), idxStart-1)
	if c.err != nil {
		// %v: the whole index is at hand, so running off it is corruption,
		// not a cue for FetchIndex to fetch a longer prefix.
		return nil, nil, false, fmt.Errorf("fzio: stream index: %v", c.err)
	}
	if c.pos != len(idx) {
		return nil, nil, false, fmt.Errorf("fzio: stream index has %d trailing bytes", len(idx)-c.pos)
	}
	last := chunks[len(chunks)-1]
	if end := int64(last.Offset) + int64(last.Length); end+1 != idxStart {
		return nil, nil, false, fmt.Errorf("fzio: stream frames end at %d, index begins at %d", end+1, idxStart)
	}
	return chunks, root, rootOK, nil
}

// MaxMonolithicFetchBytes bounds the one whole-artifact ReadRange a
// region read issues for an FZMD container. Larger FZMD artifacts still
// index here and decode in memory; only fetching one through a
// ChunkFetcher is refused.
const MaxMonolithicFetchBytes = maxStreamChunkBytes

// monolithicIndex maps an FZMD container to a one-chunk index covering
// the whole artifact, so the read planners serve monolithic containers
// through the same path. The payload has no container-level CRC
// (VerifyChunk checks only its length); Unmarshal's per-segment CRCs cover
// integrity at decode time.
func monolithicIndex(prefix []byte, size int64) (*ContainerIndex, error) {
	hdr, err := ParseMonolithicHeader(prefix)
	if err != nil {
		return nil, err
	}
	chunks := []ChunkRef{{Offset: 0, Length: int(size), Planes: hdr.Dims.SlowExtent()}}
	return finishIndex(FlavorMonolithic, hdr, chunks, nil, size), nil
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
	buf := appendStreamPrologueV(nil, ix.Header, StreamVersion)
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
