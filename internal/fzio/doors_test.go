package fzio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"
)

// A door is one public way bytes get into the package. Every door that
// accepts an artifact reports what it saw as a doorView, so tests can hold
// the doors against each other.
type doorView struct {
	hdr     ChunkedHeader
	nominal bool       // hdr.Planes was read from the artifact (FZMC/FZMS)
	chunks  []ChunkRef // Length and Planes; CRC when hasCRC
	hasCRC  bool
}

type door struct {
	name    string
	flavors string // magics' last letters the door parses: D, C, S
	open    func(blob []byte) (doorView, error)
}

var doors = []door{
	{"Unmarshal", "D", func(blob []byte) (doorView, error) {
		c, err := Unmarshal(blob)
		if err != nil {
			return doorView{}, err
		}
		return doorView{
			hdr:    c.Header.shared(),
			chunks: []ChunkRef{{Length: len(blob), Planes: c.Header.Dims.SlowExtent()}},
		}, nil
	}},
	{"UnmarshalChunked", "C", func(blob []byte) (doorView, error) {
		cc, err := UnmarshalChunked(blob)
		if err != nil {
			return doorView{}, err
		}
		for i := range cc.Chunks {
			_, _ = cc.Chunk(i) // must not panic; payload damage is the survey's verdict
		}
		return doorView{hdr: cc.Header, nominal: true, chunks: cc.Chunks, hasCRC: true}, nil
	}},
	{"NewStreamReader+Next", "S", func(blob []byte) (doorView, error) {
		sr, err := NewStreamReader(bytes.NewReader(blob))
		if err != nil {
			return doorView{}, err
		}
		var buf []byte
		for {
			payload, planes, err := sr.Next(buf)
			if err == io.EOF {
				return doorView{hdr: sr.Header(), nominal: true, chunks: sr.refs, hasCRC: true}, nil
			}
			if err != nil {
				return doorView{}, err
			}
			if planes <= 0 {
				return doorView{}, fmt.Errorf("accepted a frame with %d planes", planes)
			}
			buf = payload
		}
	}},
	{"FetchIndex", "DCS", func(blob []byte) (doorView, error) {
		ix, err := FetchIndex(NewBytesFetcher(blob))
		if err != nil {
			return doorView{}, err
		}
		mono := ix.Flavor == FlavorMonolithic
		return doorView{hdr: ix.Header, nominal: !mono, chunks: ix.Chunks, hasCRC: !mono}, nil
	}},
	// The survey's refusal is an error or a damage report: it exists to
	// tolerate what the others refuse, but must never call it clean.
	{"SurveyArtifact", "DCS", func(blob []byte) (doorView, error) {
		s, err := SurveyArtifact(NewBytesFetcher(blob))
		if err != nil {
			return doorView{}, err
		}
		if s.Damaged() {
			return doorView{}, errors.New("survey reports damage")
		}
		v := doorView{hdr: s.Header, nominal: s.Flavor != FlavorMonolithic}
		for _, sc := range s.Chunks {
			v.chunks = append(v.chunks, ChunkRef{Length: sc.Length, Planes: sc.Planes})
		}
		return v, nil
	}},
}

// agree reports how two doors' views of one artifact differ ("" if not).
func agree(a, b doorView) string {
	switch {
	case a.hdr.Pipeline != b.hdr.Pipeline:
		return fmt.Sprintf("pipeline %q vs %q", a.hdr.Pipeline, b.hdr.Pipeline)
	case a.hdr.Dims != b.hdr.Dims:
		return fmt.Sprintf("dims %v vs %v", a.hdr.Dims, b.hdr.Dims)
	case math.Float64bits(a.hdr.EB) != math.Float64bits(b.hdr.EB):
		return fmt.Sprintf("EB %v vs %v", a.hdr.EB, b.hdr.EB)
	case math.Float64bits(a.hdr.RelEB) != math.Float64bits(b.hdr.RelEB):
		return fmt.Sprintf("RelEB %v vs %v", a.hdr.RelEB, b.hdr.RelEB)
	case a.nominal && b.nominal && a.hdr.Planes != b.hdr.Planes:
		return fmt.Sprintf("nominal planes %d vs %d", a.hdr.Planes, b.hdr.Planes)
	case len(a.chunks) != len(b.chunks):
		return fmt.Sprintf("%d chunks vs %d", len(a.chunks), len(b.chunks))
	}
	for i := range a.chunks {
		x, y := a.chunks[i], b.chunks[i]
		if x.Length != y.Length || x.Planes != y.Planes || (a.hasCRC && b.hasCRC && x.CRC != y.CRC) {
			return fmt.Sprintf("chunk %d: length/planes/CRC %d/%d/%08x vs %d/%d/%08x",
				i, x.Length, x.Planes, x.CRC, y.Length, y.Planes, y.CRC)
		}
	}
	return ""
}

// crafted describes one artifact field by field in raw uint64s, so a test
// can declare values no writer would emit. The zero value of each field
// means its honest value; build re-seals every CRC, leaf hash and root
// over the bytes actually written, so only the declared limit is wrong.
type crafted struct {
	pipelineLen uint64    // declared pipeline length (honest: 1, "p")
	dims        [3]uint64 // honest: 4×2×2
	nominal     uint64    // nominal planes per chunk (honest: 1)
	count       uint64    // declared segment / chunk count (honest: 1 / 2)
	length      uint64    // declared length of segment 0 / chunk 0 (honest: 2)
	planes      uint64    // declared planes of chunk 0 (honest: 1)
	indexOnly   bool      // FZMS: length/planes apply to the trailer entry, the frame stays honest
	trailerLen  uint64    // FZMS: declared trailer length (honest: index bytes + 4)
}

func or(v, honest uint64) uint64 {
	if v == 0 {
		return honest
	}
	return v
}

func (a crafted) header(magic string, version int) []byte {
	out := append([]byte(magic), byte(version), 0)
	n := or(a.pipelineLen, 1)
	out = binary.AppendUvarint(out, n)
	out = append(out, bytes.Repeat([]byte{'p'}, int(n))...)
	for i, honest := range [3]uint64{4, 2, 2} {
		out = binary.AppendUvarint(out, or(a.dims[i], honest))
	}
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(0.5))
	out = binary.LittleEndian.AppendUint64(out, 0)
	if magic != Magic {
		out = binary.AppendUvarint(out, or(a.nominal, 1))
	}
	return out
}

func (a crafted) build(flavor byte) []byte {
	payloads := [][]byte{{0xaa, 0xbb}, {0xcc}}
	entry := func(out []byte, i int, stream, hostile bool) []byte {
		length, planes := uint64(len(payloads[i])), uint64(1)
		if i == 0 && hostile {
			length, planes = or(a.length, length), or(a.planes, planes)
		}
		crc := crc32.ChecksumIEEE(payloads[i])
		if stream {
			out = binary.AppendUvarint(out, length)
			out = binary.AppendUvarint(out, planes)
			return binary.LittleEndian.AppendUint32(out, crc)
		}
		out = binary.AppendUvarint(out, uint64(2*i)) // offset
		out = binary.AppendUvarint(out, length)
		out = binary.LittleEndian.AppendUint32(out, crc)
		return binary.AppendUvarint(out, planes)
	}
	leaves := []ChunkRef{{Hash: LeafHash(payloads[0])}, {Hash: LeafHash(payloads[1])}}
	root := merkleRoot(leaves)

	switch flavor {
	case 'D':
		out := a.header(Magic, Version)
		out = binary.AppendUvarint(out, 0) // Extra
		out = binary.AppendUvarint(out, or(a.count, 1))
		out = appendString(out, "s")
		out = binary.AppendUvarint(out, or(a.length, 2))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payloads[0]))
		return append(out, payloads[0]...)
	case 'C':
		out := a.header(ChunkedMagic, ChunkedVersion)
		out = binary.AppendUvarint(out, or(a.count, 2))
		for i := range payloads {
			out = entry(out, i, false, true)
			out = append(out, leaves[i].Hash[:]...)
		}
		out = append(out, root[:]...)
		return append(append(out, payloads[0]...), payloads[1]...)
	default:
		out := a.header(StreamMagic, StreamVersion)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
		for i := range payloads {
			out = entry(out, i, true, !a.indexOnly)
			out = append(out, payloads[i]...)
		}
		out = append(out, 0) // end marker
		idx := binary.AppendUvarint(nil, or(a.count, 2))
		for i := range payloads {
			idx = entry(idx, i, true, true)
			idx = append(idx, leaves[i].Hash[:]...)
		}
		idx = append(idx, root[:]...)
		out = append(out, idx...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(idx))
		out = binary.LittleEndian.AppendUint64(out, or(a.trailerLen, uint64(len(idx)+4)))
		return append(out, streamEndMagic...)
	}
}

// TestHardLimitsEveryDoor violates each docs/FORMAT.md §1.1 limit in each
// flavor that has the field and requires every door that parses that
// flavor to refuse the artifact — whichever parser a caller came through,
// the limit holds, and nothing panics.
func TestHardLimitsEveryDoor(t *testing.T) {
	// FetchIndex reads an FZMD's header only (the artifact is one opaque
	// chunk to it), so it cannot see a segment-table violation.
	const blindToSegments = "FetchIndex"
	for _, row := range []struct {
		name    string
		flavors string
		a       crafted
		blind   string // door that never reads the violated production
	}{
		{"string over 2^16", "DCS", crafted{pipelineLen: 1<<16 + 1}, ""},
		{"dims product over 2^34", "DCS", crafted{dims: [3]uint64{1 << 20, 1 << 20, 2}}, ""},
		{"dims product wraps to 0", "DCS", crafted{dims: [3]uint64{1 << 40, 1 << 40, 2}}, ""},
		{"one extent over 2^34", "DCS", crafted{dims: [3]uint64{1 << 40, 2, 2}}, ""},
		{"nominal planes over 2^34", "CS", crafted{nominal: 1<<34 + 1}, ""},
		{"nominal planes wrap negative", "CS", crafted{nominal: 1 << 63}, ""},
		{"segment count over 2^20", "D", crafted{count: 1<<20 + 1}, blindToSegments},
		{"segment length over the bytes remaining", "D", crafted{length: 3}, blindToSegments},
		{"segment length wraps negative", "D", crafted{length: 1 << 63}, blindToSegments},
		{"chunk count over 2^20", "CS", crafted{count: 1<<20 + 1}, ""},
		{"chunk length over the artifact", "C", crafted{length: 1 << 40}, ""},
		{"chunk length wraps negative", "CS", crafted{length: 1 << 63}, ""},
		{"frame over 2^30", "S", crafted{length: 1<<30 + 1}, ""},
		{"index entry length over 2^30", "S", crafted{length: 1<<30 + 1, indexOnly: true}, ""},
		{"index entry length wraps negative", "S", crafted{length: 1 << 63, indexOnly: true}, ""},
		{"trailer length wraps negative", "S", crafted{trailerLen: 1<<63 + 40}, ""},
		{"chunk planes over 2^34", "CS", crafted{planes: 1<<34 + 1}, ""},
		{"index entry planes wrap negative", "CS", crafted{planes: 1 << 63, indexOnly: true}, ""},
	} {
		for _, flavor := range row.flavors {
			blob := row.a.build(byte(flavor))
			for _, d := range doors {
				if !strings.ContainsRune(d.flavors, flavor) || d.name == row.blind {
					continue
				}
				t.Run(fmt.Sprintf("%s/FZM%c/%s", row.name, flavor, d.name), func(t *testing.T) {
					if _, err := d.open(blob); err == nil {
						t.Error("artifact accepted")
					}
				})
			}
		}
	}

	// The crafting itself is sound: with nothing declared wrong, every
	// door accepts all three flavors and they agree on what they read.
	for _, flavor := range "DCS" {
		blob := crafted{}.build(byte(flavor))
		var first *doorView
		for _, d := range doors {
			if !strings.ContainsRune(d.flavors, flavor) {
				continue
			}
			v, err := d.open(blob)
			if err != nil {
				t.Fatalf("honest FZM%c refused by %s: %v", flavor, d.name, err)
			}
			if first == nil {
				first = &v
			} else if diff := agree(*first, v); diff != "" {
				t.Errorf("honest FZM%c: %s disagrees: %s", flavor, d.name, diff)
			}
		}
	}
}

// hugeSegmentFZMD is the crasher the segment-length bound closes: a valid
// FZMD header (dims 4×1×1) whose one segment "s" declares length 2^63,
// which a bounds check done in int reads as negative.
func hugeSegmentFZMD() []byte {
	return crafted{dims: [3]uint64{4, 1, 1}, length: 1 << 63}.build('D')
}

func TestUnmarshalSegmentLengthWrap(t *testing.T) {
	blob := hugeSegmentFZMD()
	if _, err := Unmarshal(blob); err == nil {
		t.Error("Unmarshal accepted a segment of 2^63 bytes")
	}
	s, err := SurveyArtifact(NewBytesFetcher(blob))
	if err != nil {
		t.Fatalf("SurveyArtifact: %v (an FZMD with a sound header surveys as one corrupt chunk)", err)
	}
	if len(s.Chunks) != 1 || s.Chunks[0].State != ChunkCorrupt {
		t.Errorf("survey = %+v, want one corrupt chunk", s.Chunks)
	}
}
