// Package fzio defines the self-describing container format FZModules
// pipelines serialize into: a fixed header carrying the geometry and
// error-bound metadata a decompressor needs, followed by a table of named,
// CRC-checked segments (quantization codes, outliers, anchors, encoder
// tables...). Each pipeline stores its stages as separate segments, which
// is what lets the STF decompression pipeline start independent tasks from
// independent segments (§3.3.1).
package fzio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"fzmod/internal/grid"
)

// Magic identifies FZModules containers.
const Magic = "FZMD"

// Version is the container format version.
const Version = 1

// Header carries the metadata common to every pipeline.
type Header struct {
	Pipeline string    // pipeline identifier, e.g. "fzmod-default"
	Dims     grid.Dims // original field geometry
	EB       float64   // effective absolute error bound used
	RelEB    float64   // user-specified relative bound (0 if absolute)
	Extra    uint64    // pipeline-specific scalar (e.g. radius)
}

// shared returns the fields h has in common with the chunked flavors'
// header, the form the header codec takes.
func (h Header) shared() ChunkedHeader {
	return ChunkedHeader{Pipeline: h.Pipeline, Dims: h.Dims, EB: h.EB, RelEB: h.RelEB}
}

// Container is a decoded container: header plus named segments.
type Container struct {
	Header   Header
	segments []segment
}

type segment struct {
	name string
	data []byte
}

// New creates an empty container with the given header.
func New(h Header) *Container { return &Container{Header: h} }

// Add appends a named segment. Names must be unique and non-empty.
func (c *Container) Add(name string, data []byte) error {
	if name == "" {
		return fmt.Errorf("fzio: empty segment name")
	}
	for _, s := range c.segments {
		if s.name == name {
			return fmt.Errorf("fzio: duplicate segment %q", name)
		}
	}
	c.segments = append(c.segments, segment{name, data})
	return nil
}

// Segment returns the named segment's bytes, or an error if absent.
func (c *Container) Segment(name string) ([]byte, error) {
	for _, s := range c.segments {
		if s.name == name {
			return s.data, nil
		}
	}
	return nil, fmt.Errorf("fzio: segment %q not found", name)
}

// Has reports whether a named segment exists.
func (c *Container) Has(name string) bool {
	for _, s := range c.segments {
		if s.name == name {
			return true
		}
	}
	return false
}

// Names lists segment names in insertion order.
func (c *Container) Names() []string {
	out := make([]string, len(c.segments))
	for i, s := range c.segments {
		out[i] = s.name
	}
	return out
}

// Size returns the total payload bytes across segments (header excluded).
func (c *Container) Size() int {
	n := 0
	for _, s := range c.segments {
		n += len(s.data)
	}
	return n
}

// MarshaledSize returns the exact byte size Marshal/MarshalInto produce.
// The chunked executor uses it to lay out the final container before any
// chunk has serialized, so workers can scatter-write their chunks directly
// into the assembled output.
func (c *Container) MarshaledSize() int {
	n := headerSize(Magic, c.Header.shared())
	n += uvarintLen(c.Header.Extra)
	n += uvarintLen(uint64(len(c.segments)))
	for _, s := range c.segments {
		n += stringLen(s.name) + uvarintLen(uint64(len(s.data))) + 4 + len(s.data)
	}
	return n
}

// Marshal serializes the container into a single exact-size allocation.
//
// Layout: "FZMD" ‖ u16 version ‖ uvarint fields:
// pipeline, dims X/Y/Z, EB bits, RelEB bits, Extra, segment count; then per
// segment: name, length, CRC32(payload); then concatenated payloads.
func (c *Container) Marshal() ([]byte, error) {
	out := make([]byte, c.MarshaledSize())
	if _, err := c.MarshalInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// MarshalInto serializes the container into dst, which must hold at least
// MarshaledSize bytes, and returns the bytes written. The byte stream is
// identical to Marshal's.
func (c *Container) MarshalInto(dst []byte) (int, error) {
	if !c.Header.Dims.Valid() {
		return 0, fmt.Errorf("fzio: invalid dims %v", c.Header.Dims)
	}
	size := c.MarshaledSize()
	if len(dst) < size {
		return 0, fmt.Errorf("fzio: container needs %d bytes, dst has %d", size, len(dst))
	}
	out := appendHeader(dst[:0], Magic, Version, c.Header.shared())
	out = binary.AppendUvarint(out, c.Header.Extra)
	out = binary.AppendUvarint(out, uint64(len(c.segments)))
	for _, s := range c.segments {
		out = appendString(out, s.name)
		out = binary.AppendUvarint(out, uint64(len(s.data)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(s.data))
	}
	for _, s := range c.segments {
		out = append(out, s.data...)
	}
	if len(out) != size {
		return 0, fmt.Errorf("fzio: marshaled %d bytes, computed %d", len(out), size)
	}
	return size, nil
}

// Unmarshal parses a container, verifying magic, version and segment CRCs.
func Unmarshal(blob []byte) (*Container, error) {
	r := cursor{b: blob}
	h, _ := r.header(Magic, Version)
	c := &Container{Header: Header{Pipeline: h.Pipeline, Dims: h.Dims, EB: h.EB, RelEB: h.RelEB, Extra: r.uvarint()}}
	// A table entry takes at least six bytes, so a count beyond the blob's
	// length is corrupt whatever follows; refusing it here keeps the table
	// allocation proportional to the bytes actually present.
	nSeg := r.uvarint()
	if nSeg > 1<<20 || nSeg > uint64(len(blob)) {
		r.fail("bad segment count %d", nSeg)
	}
	if r.err != nil {
		return nil, r.err
	}
	type segMeta struct {
		name string
		size uint64
		crc  uint32
	}
	metas := make([]segMeta, nSeg)
	for i := range metas {
		metas[i] = segMeta{r.str(), r.uvarint(), r.u32()}
		if r.err != nil {
			return nil, r.err
		}
	}
	c.segments = make([]segment, 0, nSeg)
	for _, m := range metas {
		data := r.take(m.size)
		if r.err != nil {
			return nil, fmt.Errorf("fzio: segment %q exceeds container", m.name)
		}
		if crc32.ChecksumIEEE(data) != m.crc {
			return nil, fmt.Errorf("fzio: segment %q CRC mismatch (corrupt container)", m.name)
		}
		c.segments = append(c.segments, segment{m.name, data})
	}
	return c, nil
}

// ParseMonolithicHeader reads the FZMD header fields shared with the
// chunked formats (pipeline, dims, bounds) from a prefix.
func ParseMonolithicHeader(blob []byte) (ChunkedHeader, error) {
	c := cursor{b: blob}
	hdr, _ := c.header(Magic, Version)
	return hdr, c.err
}
