package fzio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fzmod/internal/grid"
)

// This file holds the one decoder and the one encoder of every production
// the three container flavors share (docs/FORMAT.md): the primitives, the
// header every flavor opens with, and the chunk index FZMC carries up front
// and FZMS in its trailer. Each §1.1 hard limit is checked here, where its
// production is parsed, so every door into the package — Unmarshal,
// UnmarshalChunked, NewStreamReader, FetchIndex, SurveyArtifact — enforces
// all of them. The geometry limits (field elements, plane counts, chunk
// count) are grid.Geometry.CheckLimits, which the writers call too.

// maxStreamChunkBytes bounds a single frame's declared payload length so a
// corrupt length cannot drive an absurd allocation (1 GiB per chunk is far
// beyond any slab the compressor emits).
const maxStreamChunkBytes = 1 << 30

// truncatedErr marks a parse that ran off the end of the bytes at hand —
// corruption when the whole artifact was present, "supply short more bytes
// and retry" when only a prefix was.
type truncatedErr struct {
	pos   int
	short uint64
}

func (e truncatedErr) Error() string {
	return fmt.Sprintf("fzio: container truncated: %d more bytes needed at offset %d", e.short, e.pos)
}

// isTruncated reports whether err marks a parse that needs more bytes.
func isTruncated(err error) bool {
	if err == nil {
		return false // before errors.As makes its target escape to the heap
	}
	var t truncatedErr
	return errors.As(err, &t)
}

// cursor reads the grammar's primitives off a byte slice that may be only
// a prefix of the artifact. The first failure latches in err and every
// later read returns zero, so a production is parsed straight through and
// the error checked once at its end.
type cursor struct {
	b   []byte
	pos int
	err error
}

// fail latches a corruption error unless an earlier failure already has.
func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("fzio: "+format, args...)
	}
}

// take returns the next n bytes (nil once failed). n is compared against
// the bytes remaining as a uint64, so a declared length ≥ 2^63 cannot wrap
// negative on its way to a slice bound.
func (c *cursor) take(n uint64) []byte {
	if c.err != nil {
		return nil
	}
	if left := uint64(len(c.b) - c.pos); n > left {
		c.err = truncatedErr{pos: c.pos, short: n - left}
		return nil
	}
	lo := c.pos
	c.pos += int(n)
	return c.b[lo:c.pos]
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, k := binary.Uvarint(c.b[c.pos:])
	switch {
	case k == 0:
		c.err = truncatedErr{pos: c.pos, short: 1}
	case k < 0:
		c.fail("uvarint at offset %d overflows 64 bits", c.pos)
	}
	c.pos += max(k, 0)
	return v
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *cursor) f64() float64 {
	if b := c.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// str reads a length-prefixed string.
func (c *cursor) str() string {
	n := c.uvarint()
	if n > 1<<16 {
		c.fail("string length %d exceeds limit", n)
	}
	return string(c.take(n))
}

func appendString(out []byte, s string) []byte {
	out = binary.AppendUvarint(out, uint64(len(s)))
	return append(out, s...)
}

// uvarintLen returns the encoded size of v in bytes.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// stringLen returns the encoded size of a length-prefixed string.
func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// header reads the fields every flavor opens with —
//
//	magic ‖ u16 version ‖ string pipeline ‖ uvarint X, Y, Z ‖ f64 EB ‖ f64 RelEB
//
// — and, for the two chunked flavors, the uvarint nominal planes per chunk
// that follows; an FZMD is one slab, so its Planes is the slow extent.
// Versions 1 through maxVersion are accepted.
func (c *cursor) header(magic string, maxVersion int) (h ChunkedHeader, version int) {
	if b := c.take(6); b != nil {
		version = int(binary.LittleEndian.Uint16(b[4:]))
		if string(b[:4]) != magic {
			c.fail("not an %s container", magic)
		} else if version < 1 || version > maxVersion {
			c.fail("unsupported %s version %d", magic, version)
		}
	}
	h.Pipeline = c.str()
	x, y, z := c.uvarint(), c.uvarint(), c.uvarint()
	h.EB, h.RelEB = c.f64(), c.f64()
	nominal := uint64(0)
	if magic != Magic {
		nominal = c.uvarint()
	}
	// Decoders allocate Dims.N() output elements before any payload CRC is
	// checked, so the limits are judged on the uint64s, ahead of the int
	// conversions. Zero extents fall through to the Valid check.
	c.limit(grid.Geometry{X: x, Y: y, Z: z, Planes: nominal})
	h.Dims = grid.Dims{X: int(x), Y: int(y), Z: int(z)}
	if !h.Dims.Valid() {
		c.fail("invalid dims %v", h.Dims)
	}
	h.Planes = int(nominal)
	if magic == Magic {
		h.Planes = h.Dims.SlowExtent()
	}
	return h, version
}

// limit latches a violated geometry hard limit as corruption.
func (c *cursor) limit(g grid.Geometry) {
	if err := g.CheckLimits(); err != nil {
		c.fail("%v", err)
	}
}

// checkWriteHeader is what every writer of the shared header checks before
// it serializes one: positive extents within the limits its own readers
// enforce, so no writer can emit an artifact they would refuse.
func checkWriteHeader(h ChunkedHeader, chunks int) error {
	if !h.Dims.Valid() {
		return fmt.Errorf("fzio: invalid dims %v", h.Dims)
	}
	g := h.Dims.Geometry()
	g.Planes, g.Chunks = uint64(h.Planes), uint64(chunks)
	if err := g.CheckLimits(); err != nil {
		return fmt.Errorf("fzio: %w", err)
	}
	return nil
}

// appendHeader is header's inverse.
func appendHeader(out []byte, magic string, version int, h ChunkedHeader) []byte {
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, uint16(version))
	out = appendString(out, h.Pipeline)
	out = binary.AppendUvarint(out, uint64(h.Dims.X))
	out = binary.AppendUvarint(out, uint64(h.Dims.Y))
	out = binary.AppendUvarint(out, uint64(h.Dims.Z))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(h.EB))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(h.RelEB))
	if magic != Magic {
		out = binary.AppendUvarint(out, uint64(h.Planes))
	}
	return out
}

// headerSize is the length appendHeader adds: the in-memory writers lay
// out an exact-size buffer before anything serializes.
func headerSize(magic string, h ChunkedHeader) int {
	n := len(magic) + 2 + stringLen(h.Pipeline) + 16 +
		uvarintLen(uint64(h.Dims.X)) + uvarintLen(uint64(h.Dims.Y)) + uvarintLen(uint64(h.Dims.Z))
	if magic != Magic {
		n += uvarintLen(uint64(h.Planes))
	}
	return n
}

// chunkIndex reads `uvarint count ‖ entries ‖ Merkle root (v≥2)`: the FZMC
// chunk table, or — with stream set — the FZMS trailer index, whose
// entries hold the same fields in another order and no offset (frames sit
// back to back, so each payload's offset follows from the lengths before
// it).
//
//	FZMC entry: uvarint offset ‖ uvarint length ‖ CRC32 ‖ uvarint planes ‖ hash (v≥2)
//	FZMS entry: uvarint length ‖ uvarint planes ‖ CRC32 ‖ hash (v≥2)
//
// FZMC offsets are relative to the payload area and must run contiguously
// from zero; FZMS offsets are computed, absolute, starting from the first
// frame header at base. No payload may end beyond limit, and the plane
// counts must tile the slow extent. rootOK reports whether a recorded
// root reproduces from the entries' own leaf hashes: strict readers refuse
// a false one through checkRoot, the salvage survey records it.
func (c *cursor) chunkIndex(version int, stream bool, slow int, base, limit int64) (chunks []ChunkRef, root []byte, rootOK bool) {
	n := c.uvarint()
	if n == 0 {
		c.fail("bad chunk count %d", n)
	}
	c.limit(grid.Geometry{Chunks: n})
	if c.err != nil {
		return nil, nil, false
	}
	chunks = make([]ChunkRef, n)
	off, covered := base, 0
	for i := range chunks {
		ref := &chunks[i]
		var length, planes uint64
		if stream {
			length, planes = c.uvarint(), c.uvarint()
			ref.CRC = c.u32()
			// The frame header (length ‖ planes ‖ CRC32) precedes each
			// payload; its size follows exactly from the recorded values.
			off += int64(uvarintLen(length) + uvarintLen(planes) + 4)
			if length == 0 || length > maxStreamChunkBytes {
				c.fail("chunk %d length %d out of range", i, length)
			}
		} else {
			if declared := c.uvarint(); declared != uint64(off) {
				c.fail("chunk %d offset %d, want %d", i, declared, off)
			}
			length = c.uvarint()
			ref.CRC = c.u32()
			planes = c.uvarint()
		}
		if version >= 2 {
			copy(ref.Hash[:], c.take(HashSize))
		}
		if planes == 0 {
			c.fail("chunk %d covers no planes", i)
		}
		c.limit(grid.Geometry{Planes: planes})
		// Overflow-safe accumulation: off stays ≤ limit, so neither it nor
		// the caller's bounds arithmetic can wrap.
		if off > limit || length > uint64(limit-off) {
			c.fail("payload truncated: chunk %d needs %d bytes", i, length)
		}
		if c.err != nil {
			return nil, nil, false
		}
		ref.Offset, ref.Length, ref.Planes = int(off), int(length), int(planes)
		off += int64(length)
		covered += int(planes)
	}
	if covered != slow {
		c.fail("chunks cover %d planes, field has %d", covered, slow)
	}
	if version >= 2 {
		root = append([]byte(nil), c.take(HashSize)...)
		want := merkleRoot(chunks)
		rootOK = string(root) == string(want[:])
	}
	if c.err != nil {
		return nil, nil, false
	}
	return chunks, root, rootOK
}

// checkRoot is the strict readers' verdict on a parsed chunk index: a
// recorded root that does not reproduce from the entries means a tampered
// table (or root), and surfaces before any payload is fetched or trusted.
func checkRoot(root []byte, rootOK bool) error {
	if root != nil && !rootOK {
		return fmt.Errorf("%w: chunk index root disagrees with entries", ErrProofMismatch)
	}
	return nil
}

// sniff maps the magic an artifact opens with to its flavor. prefix holds
// at least the six magic and version bytes.
func sniff(prefix []byte) (string, error) {
	switch string(prefix[:4]) {
	case ChunkedMagic:
		return FlavorChunked, nil
	case StreamMagic:
		return FlavorStream, nil
	case Magic:
		return FlavorMonolithic, nil
	}
	return "", fmt.Errorf("fzio: unrecognized container magic %q", prefix[:4])
}
