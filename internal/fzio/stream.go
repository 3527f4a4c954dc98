package fzio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"fzmod/internal/grid"
)

// This file defines the streaming (append-mode) variant of the chunked
// container: where FZMC records an up-front chunk table, FZMS frames each
// chunk as it is produced and defers the index to a trailer, so a writer
// can flush chunks the moment they finish without knowing how many will
// follow or how large they will be. A pure io.Reader can decode the stream
// sequentially from the frames alone; the trailer lets the reader
// cross-check the whole index at end-of-stream (and lets seek-capable
// consumers locate the table without scanning).
//
// Layout:
//
//	"FZMS" ‖ u16 version ‖ pipeline string ‖ uvarint dims X/Y/Z ‖
//	EB bits ‖ RelEB bits ‖ uvarint nominal planes ‖
//	CRC32(prologue)                                        (prologue)
//	{ uvarint length≥1 ‖ uvarint planes ‖ CRC32(payload) ‖ payload }*
//	uvarint 0                                              (end marker)
//	uvarint chunk count ‖
//	{ uvarint length ‖ uvarint planes ‖ CRC32 ‖ hash (v≥2) }* ‖
//	Merkle root (v≥2) ‖
//	CRC32(trailer) ‖ u64 trailer length ‖ "FZME"           (trailer)
//
// The trailer CRC covers the bytes from the chunk count through the last
// table entry (and, for version ≥ 2, the per-chunk SHA-256 leaf hashes
// and the 32-byte Merkle root that follow the entries); the u64 length
// counts the same span plus the trailer CRC, so a consumer holding the
// tail can walk backwards to the table start.

// StreamMagic identifies streaming FZModules containers.
const StreamMagic = "FZMS"

// StreamVersion is the streaming container format version writers emit.
// Version 2 extends each trailer entry with the chunk's SHA-256 leaf
// hash and appends the Merkle root after the entries (see merkle.go and
// docs/FORMAT.md §Integrity); readers accept versions 1 and 2, so v1
// artifacts stay decodable everywhere.
const StreamVersion = 2

// streamEndMagic terminates a well-formed stream.
const streamEndMagic = "FZME"

// IsStream reports whether blob starts with the streaming container magic.
// Four bytes of lookahead suffice.
func IsStream(blob []byte) bool {
	return len(blob) >= 4 && string(blob[:4]) == StreamMagic
}

// StreamWriter emits a streaming container chunk by chunk. Create with
// NewStreamWriter (which writes the prologue), call WriteChunk as chunks
// finish, then Close to emit the end marker and index trailer. The writer
// validates that chunk plane extents exactly tile the header geometry.
type StreamWriter struct {
	w       io.Writer
	header  ChunkedHeader
	refs    []ChunkRef
	planes  int // planes covered so far
	written int64
	scratch [binary.MaxVarintLen64]byte
	closed  bool
}

// NewStreamWriter validates the header and writes the stream prologue.
func NewStreamWriter(w io.Writer, h ChunkedHeader) (*StreamWriter, error) {
	if err := checkWriteHeader(h, 0); err != nil {
		return nil, err
	}
	out := appendStreamPrologueV(nil, h, StreamVersion)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	sw := &StreamWriter{w: w, header: h}
	if err := sw.write(out); err != nil {
		return nil, err
	}
	return sw, nil
}

func (sw *StreamWriter) write(b []byte) error {
	n, err := sw.w.Write(b)
	sw.written += int64(n)
	return err
}

func (sw *StreamWriter) writeUvarint(v uint64) error {
	n := binary.PutUvarint(sw.scratch[:], v)
	return sw.write(sw.scratch[:n])
}

// WriteChunk frames one chunk payload covering planes planes of the
// slowest dimension. Payloads must be non-empty (an inner container is
// never empty; zero length is the end-of-chunks marker).
func (sw *StreamWriter) WriteChunk(payload []byte, planes int) error {
	if sw.closed {
		return fmt.Errorf("fzio: WriteChunk on closed stream")
	}
	if len(payload) == 0 {
		return fmt.Errorf("fzio: empty chunk payload")
	}
	// A frame or a trailer the readers would refuse is never written.
	if len(payload) > maxStreamChunkBytes {
		return fmt.Errorf("fzio: chunk length %d exceeds limit", len(payload))
	}
	if err := (grid.Geometry{Chunks: uint64(len(sw.refs) + 1)}).CheckLimits(); err != nil {
		return fmt.Errorf("fzio: %w", err)
	}
	if planes <= 0 {
		return fmt.Errorf("fzio: chunk covers %d planes", planes)
	}
	if sw.planes+planes > sw.header.Dims.SlowExtent() {
		return fmt.Errorf("fzio: chunks cover %d planes, field has %d",
			sw.planes+planes, sw.header.Dims.SlowExtent())
	}
	crc := crc32.ChecksumIEEE(payload)
	if err := sw.writeUvarint(uint64(len(payload))); err != nil {
		return err
	}
	if err := sw.writeUvarint(uint64(planes)); err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc)
	if err := sw.write(crcBuf[:]); err != nil {
		return err
	}
	if err := sw.write(payload); err != nil {
		return err
	}
	sw.planes += planes
	sw.refs = append(sw.refs, ChunkRef{Length: len(payload), CRC: crc, Planes: planes, Hash: LeafHash(payload)})
	return nil
}

// Close writes the end marker and the index trailer. The chunks written
// must exactly tile the header geometry. Close does not close the
// underlying writer.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	if sw.planes != sw.header.Dims.SlowExtent() {
		return fmt.Errorf("fzio: chunks cover %d planes, field has %d",
			sw.planes, sw.header.Dims.SlowExtent())
	}
	sw.closed = true
	if err := sw.writeUvarint(0); err != nil { // end-of-chunks marker
		return err
	}
	trailer := appendIndexV(nil, sw.refs, StreamVersion)
	trailer = binary.LittleEndian.AppendUint32(trailer, crc32.ChecksumIEEE(trailer))
	trailer = binary.LittleEndian.AppendUint64(trailer, uint64(len(trailer)))
	trailer = append(trailer, streamEndMagic...)
	return sw.write(trailer)
}

// BytesWritten reports the total bytes emitted so far, prologue included.
func (sw *StreamWriter) BytesWritten() int64 { return sw.written }

// NumChunks reports the chunks framed so far.
func (sw *StreamWriter) NumChunks() int { return len(sw.refs) }

// StreamReader decodes a streaming container sequentially from an
// io.Reader. Create with NewStreamReader (which consumes the prologue),
// then call Next until it returns io.EOF; the reader verifies each frame's
// CRC as it is read and the index trailer once the end marker arrives, so
// an io.EOF from Next means the whole stream checked out.
type StreamReader struct {
	r       *bufio.Reader
	header  ChunkedHeader
	version int
	refs    []ChunkRef
	planes  int
	done    bool
}

// NewStreamReader consumes and validates the stream prologue.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	// The prologue's length is known only once it has parsed, and nothing
	// past it may be consumed: read exactly the bytes the last attempt ran
	// short of, and parse again.
	var buf []byte
	for short := uint64(6); ; {
		lo := len(buf)
		buf = append(buf, make([]byte, short)...)
		if _, err := io.ReadFull(br, buf[lo:]); err != nil {
			return nil, fmt.Errorf("fzio: truncated stream prologue: %w", err)
		}
		hdr, version, _, err := parseStreamPrologue(buf)
		var t truncatedErr
		if errors.As(err, &t) {
			short = t.short
			continue
		}
		if err != nil {
			return nil, err
		}
		return &StreamReader{r: br, header: hdr, version: version}, nil
	}
}

// parseStreamPrologue parses and CRC-verifies the FZMS prologue from a
// prefix, returning the header, the format version, and the prologue's
// byte length.
func parseStreamPrologue(blob []byte) (ChunkedHeader, int, int, error) {
	c := cursor{b: blob}
	hdr, version := c.header(StreamMagic, StreamVersion)
	crc := c.u32()
	if c.err != nil {
		return hdr, 0, 0, c.err
	}
	// Verify against the canonical re-serialization of the parsed fields,
	// so header corruption that survived parsing (a non-canonical uvarint
	// included) still surfaces before chunks are decoded.
	if crc != crc32.ChecksumIEEE(appendStreamPrologueV(nil, hdr, version)) {
		return hdr, 0, 0, fmt.Errorf("fzio: stream prologue CRC mismatch")
	}
	return hdr, version, c.pos, nil
}

// appendIndexV serializes the chunk-index table in its canonical
// encoding for the given format version — the single definition the
// writer's trailer and the sequential reader's verification share
// (cursor.chunkIndex is its inverse). Version 1 writes count, then
// length/planes/CRC per chunk; version ≥ 2 additionally writes each
// chunk's leaf hash and, after the entries, the Merkle root over them.
func appendIndexV(out []byte, refs []ChunkRef, version int) []byte {
	out = binary.AppendUvarint(out, uint64(len(refs)))
	for _, ref := range refs {
		out = binary.AppendUvarint(out, uint64(ref.Length))
		out = binary.AppendUvarint(out, uint64(ref.Planes))
		out = binary.LittleEndian.AppendUint32(out, ref.CRC)
		if version >= 2 {
			out = append(out, ref.Hash[:]...)
		}
	}
	if version >= 2 {
		root := merkleRoot(refs)
		out = append(out, root[:]...)
	}
	return out
}

// appendStreamPrologueV serializes the prologue fields (everything the
// CRC covers) in their canonical encoding, stamping the given format
// version.
func appendStreamPrologueV(out []byte, h ChunkedHeader, version int) []byte {
	return appendHeader(out, StreamMagic, version, h)
}

// Header returns the stream's global metadata.
func (sr *StreamReader) Header() ChunkedHeader { return sr.header }

// NumChunks reports the chunks decoded so far (the final count once Next
// has returned io.EOF).
func (sr *StreamReader) NumChunks() int { return len(sr.refs) }

// Next reads the next chunk frame, verifying its CRC, and returns the
// payload together with the planes it covers. dst is reused when its
// capacity suffices, so a caller cycling one buffer reads the stream with
// no per-chunk allocation. At the end marker Next verifies the index
// trailer against every frame seen and returns io.EOF.
func (sr *StreamReader) Next(dst []byte) ([]byte, int, error) {
	if sr.done {
		return nil, 0, io.EOF
	}
	length, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return nil, 0, fmt.Errorf("fzio: truncated stream: missing frame header: %w", err)
	}
	if length == 0 {
		sr.done = true
		if err := sr.verifyTrailer(); err != nil {
			return nil, 0, err
		}
		return nil, 0, io.EOF
	}
	if length > maxStreamChunkBytes {
		return nil, 0, fmt.Errorf("fzio: chunk length %d exceeds limit", length)
	}
	planes, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return nil, 0, fmt.Errorf("fzio: truncated chunk planes: %w", err)
	}
	// Bound before the int conversion: a crafted >= 2^63 value would wrap
	// negative and slip past the tiling check below.
	if planes == 0 || planes > grid.MaxElems {
		return nil, 0, fmt.Errorf("fzio: bad chunk plane count %d", planes)
	}
	if sr.planes+int(planes) > sr.header.Dims.SlowExtent() {
		return nil, 0, fmt.Errorf("fzio: chunks cover %d planes, field has %d",
			sr.planes+int(planes), sr.header.Dims.SlowExtent())
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(sr.r, crcBuf[:]); err != nil {
		return nil, 0, fmt.Errorf("fzio: truncated chunk CRC: %w", err)
	}
	crc := binary.LittleEndian.Uint32(crcBuf[:])
	payload, err := readN(sr.r, dst, int(length))
	if err != nil {
		return nil, 0, fmt.Errorf("fzio: truncated chunk payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, fmt.Errorf("fzio: chunk %d CRC mismatch (corrupt stream)", len(sr.refs))
	}
	sr.planes += int(planes)
	ref := ChunkRef{Length: int(length), CRC: crc, Planes: int(planes)}
	if sr.version >= 2 {
		// Hash what was actually read: a tampered frame whose CRC still
		// matches (32 bits are forgeable) diverges from the trailer's leaf
		// hash and Merkle root at verifyTrailer.
		ref.Hash = LeafHash(payload)
	}
	sr.refs = append(sr.refs, ref)
	return payload, int(planes), nil
}

// verifyTrailer reads the index trailer and checks it against the frames
// already decoded: same count, lengths, plane extents, CRCs and (v2) leaf
// hashes and root, plus the trailer's own CRC, length record and end
// magic. A disagreement is reported by trailerMismatch.
func (sr *StreamReader) verifyTrailer() error {
	if sr.planes != sr.header.Dims.SlowExtent() {
		return fmt.Errorf("fzio: chunks cover %d planes, field has %d",
			sr.planes, sr.header.Dims.SlowExtent())
	}
	// Re-serialize the expected table — for v2 including the leaf hashes
	// of the payloads actually read and the Merkle root over them — and
	// compare byte-for-byte with what the stream carries; any divergence
	// (count, entry, CRC, hash, root) surfaces.
	want := appendIndexV(nil, sr.refs, sr.version)
	got := make([]byte, len(want))
	if _, err := io.ReadFull(sr.r, got); err != nil {
		return fmt.Errorf("fzio: truncated stream trailer: %w", err)
	}
	for i := range want {
		if got[i] != want[i] {
			return sr.trailerMismatch(i)
		}
	}
	var tail [16]byte // trailer CRC (4) + trailer length (8) + end magic (4)
	if _, err := io.ReadFull(sr.r, tail[:]); err != nil {
		return fmt.Errorf("fzio: truncated stream trailer: %w", err)
	}
	if binary.LittleEndian.Uint32(tail[:4]) != crc32.ChecksumIEEE(want) {
		return fmt.Errorf("fzio: stream trailer CRC mismatch")
	}
	if got := binary.LittleEndian.Uint64(tail[4:12]); got != uint64(len(want)+4) {
		return fmt.Errorf("fzio: stream trailer length %d, want %d", got, len(want)+4)
	}
	if string(tail[12:]) != streamEndMagic {
		return fmt.Errorf("fzio: missing stream end magic")
	}
	return nil
}

// trailerMismatch names what the trailer byte at off — the first that
// differs from the table appendIndexV re-serialized from the frames read —
// belongs to: the chunk count, a chunk's entry (ErrProofMismatch when the
// byte lies in its leaf hash, so its length, planes and CRC agree), or the
// Merkle root.
func (sr *StreamReader) trailerMismatch(off int) error {
	end := uvarintLen(uint64(len(sr.refs)))
	if off < end {
		return fmt.Errorf("fzio: stream trailer's chunk count disagrees with the %d frames read", len(sr.refs))
	}
	hash := 0
	if sr.version >= 2 {
		hash = HashSize
	}
	for i, ref := range sr.refs {
		end += uvarintLen(uint64(ref.Length)) + uvarintLen(uint64(ref.Planes)) + 4 + hash
		if off < end-hash {
			return fmt.Errorf("fzio: stream trailer's entry for chunk %d disagrees with its frame", i)
		}
		if off < end {
			return fmt.Errorf("%w: stream trailer's leaf hash for chunk %d disagrees with its frame", ErrProofMismatch, i)
		}
	}
	return fmt.Errorf("%w: stream trailer's Merkle root disagrees with its frames", ErrProofMismatch)
}

// readN reads exactly n bytes into dst (reused when capacity allows),
// growing incrementally so a corrupt length cannot force a huge up-front
// allocation: memory committed never exceeds the bytes actually present.
func readN(r io.Reader, dst []byte, n int) ([]byte, error) {
	const step = 1 << 20
	if cap(dst) >= n {
		dst = dst[:n]
		_, err := io.ReadFull(r, dst)
		return dst, err
	}
	dst = dst[:0]
	for len(dst) < n {
		k := n - len(dst)
		if k > step {
			k = step
		}
		lo := len(dst)
		dst = append(dst, make([]byte, k)...)
		if _, err := io.ReadFull(r, dst[lo:]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// ReassembleChunked reads an entire stream and re-serializes it as a
// random-access chunked (FZMC) container. Because both formats carry the
// identical header fields and chunk payloads, a stream produced from the
// same per-chunk compression is bit-identical, after reassembly, to the
// container the in-memory chunked path emits.
func ReassembleChunked(r io.Reader) ([]byte, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	var chunks [][]byte
	var planes []int
	for {
		payload, k, err := sr.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, payload)
		planes = append(planes, k)
	}
	return MarshalChunked(sr.Header(), chunks, planes)
}
