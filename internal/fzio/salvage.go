package fzio

import (
	"fmt"
	"hash/crc32"

	"fzmod/internal/grid"
)

// This file is the salvage path for damaged artifacts: where the normal
// readers refuse a container on the first integrity violation (the right
// default — wrong bytes must never decode silently), the survey here
// walks the whole artifact, classifies every chunk as intact, corrupt or
// missing, and lets SalvageChunked rebuild a fully valid container from
// the chunks that survived. A truncated stream upload, a torn disk
// write, or a tampered chunk store therefore costs the damaged chunks,
// not the artifact.

// Chunk survey states.
const (
	// ChunkIntact marks a chunk whose payload is present and passes every
	// integrity check the artifact carries (CRC32, and the Merkle leaf
	// hash on version ≥ 2 containers).
	ChunkIntact = "intact"
	// ChunkCorrupt marks a chunk whose payload is present but fails an
	// integrity check.
	ChunkCorrupt = "corrupt"
	// ChunkMissing marks a chunk whose payload lies (at least partly)
	// beyond the end of the artifact — truncation damage.
	ChunkMissing = "missing"
)

// SurveyChunk is one chunk's salvage verdict.
type SurveyChunk struct {
	// Index is the chunk's position in the container's chunk order.
	Index int
	// Length and Planes echo the chunk's recorded geometry.
	Length int
	Planes int
	// State is ChunkIntact, ChunkCorrupt or ChunkMissing.
	State string
	// Detail names the failed check for damaged chunks ("" when intact).
	Detail string

	payload []byte // retained for intact chunks, so salvage needs no refetch
}

// Payload returns the chunk's integrity-checked payload bytes — non-nil
// exactly for ChunkIntact chunks. Callers must not mutate it (it aliases
// the surveyed artifact).
func (c *SurveyChunk) Payload() []byte { return c.payload }

// Survey is the damage report of one artifact: per-chunk verdicts plus
// the container-level facts salvage and verification report on.
type Survey struct {
	// Flavor is the container format surveyed (FlavorChunked,
	// FlavorStream or FlavorMonolithic).
	Flavor string
	// Header is the container's global metadata.
	Header ChunkedHeader
	// Root is the recorded Merkle root when the artifact carries one
	// (version ≥ 2 and the bytes holding it survived); nil otherwise.
	Root []byte
	// RootVerified reports whether Root reproduces from the chunk table's
	// own leaf hashes. False with a non-nil Root means the table or the
	// root itself is damaged; intact chunks are then vouched for by their
	// CRC and recorded leaf hash only.
	RootVerified bool
	// Truncated reports that the artifact ends before its recorded layout
	// does (missing chunks, a cut trailer, or a lost end marker).
	Truncated bool
	// Chunks holds one verdict per chunk the survey could locate.
	Chunks []SurveyChunk
}

// Intact returns how many surveyed chunks are undamaged.
func (s *Survey) Intact() int {
	n := 0
	for _, c := range s.Chunks {
		if c.State == ChunkIntact {
			n++
		}
	}
	return n
}

// Damaged reports whether the survey found any damage — chunk-level or
// container-level (truncation, an unverifiable root).
func (s *Survey) Damaged() bool {
	if s.Truncated || (s.Root != nil && !s.RootVerified) {
		return true
	}
	return s.Intact() != len(s.Chunks)
}

// SurveyArtifact fetches the whole artifact behind f and walks it
// chunk by chunk, classifying each as intact, corrupt or missing. It
// tolerates the damage the normal readers refuse: a truncated payload
// area, a tampered root, a cut stream trailer. It still errors when
// nothing can be salvaged at all — an unrecognizable magic, or a header
// too damaged to locate any chunk.
func SurveyArtifact(f ChunkFetcher) (*Survey, error) {
	size, err := artifactSize(f)
	if err != nil {
		return nil, err
	}
	if size > maxSalvageBytes {
		return nil, fmt.Errorf("fzio: artifact of %d bytes exceeds the salvage limit", size)
	}
	blob, err := fetchExact(f, 0, int(size), "artifact")
	if err != nil {
		return nil, err
	}
	flavor, err := sniff(blob)
	if err != nil {
		return nil, err
	}
	switch flavor {
	case FlavorChunked:
		return surveyChunked(blob)
	case FlavorStream:
		return surveyStream(blob)
	default:
		return surveyMonolithic(blob)
	}
}

// maxSalvageBytes bounds the artifact size the survey will hold in
// memory (the salvage path reads the whole artifact once, by design —
// damage classification needs every payload byte anyway).
const maxSalvageBytes = 1 << 32

// surveyChunked walks an FZMC artifact. The chunk table sits up front,
// so even a truncated payload area still yields every chunk's recorded
// geometry; the table itself being cut is unsalvageable (the chunk
// boundaries are unrecoverable).
func surveyChunked(blob []byte) (*Survey, error) {
	// Permissive payload bound: a truncated artifact declares more payload
	// than it holds, which is exactly the damage the per-chunk walk below
	// classifies.
	hdr, chunks, root, rootOK, pos, err := parseChunkedTable(blob, maxSalvageBytes)
	if err != nil {
		return nil, fmt.Errorf("fzio: unsalvageable chunked artifact: %w", err)
	}
	s := &Survey{Flavor: FlavorChunked, Header: hdr, Root: root, RootVerified: rootOK}
	ix := &ContainerIndex{Flavor: FlavorChunked, Header: hdr, Chunks: chunks, Root: root}
	for i, ref := range chunks {
		sc := SurveyChunk{Index: i, Length: ref.Length, Planes: ref.Planes}
		lo, hi := pos+ref.Offset, pos+ref.Offset+ref.Length
		if hi > len(blob) {
			sc.State = ChunkMissing
			sc.Detail = fmt.Sprintf("payload [%d,%d) extends past the %d-byte artifact", lo, hi, len(blob))
			s.Truncated = true
		} else {
			sc.judge(ix, blob[lo:hi])
		}
		s.Chunks = append(s.Chunks, sc)
	}
	return s, nil
}

// judge gives a present payload the read doors' verdict (VerifyChunk, its
// error the Detail of a corrupt chunk); an index without an entry for the
// chunk (a stream whose trailer did not survive) adds nothing to what the
// caller checked.
func (sc *SurveyChunk) judge(ix *ContainerIndex, payload []byte) {
	if sc.Index < len(ix.Chunks) {
		if err := ix.VerifyChunk(sc.Index, payload); err != nil {
			sc.State, sc.Detail = ChunkCorrupt, err.Error()
			return
		}
	}
	sc.State, sc.payload = ChunkIntact, payload
}

// surveyStream walks an FZMS artifact frame by frame from the prologue —
// the frames are self-describing, so the walk survives a missing or cut
// trailer and stops cleanly at a truncation point. When the trailer is
// present and sane, its per-chunk leaf hashes (version ≥ 2) upgrade the
// per-frame verdicts: a CRC-colliding tamper is caught by the hash.
func surveyStream(blob []byte) (*Survey, error) {
	hdr, version, prologueLen, err := parseStreamPrologue(blob)
	if err != nil {
		return nil, fmt.Errorf("fzio: unsalvageable stream artifact: %w", err)
	}
	s := &Survey{Flavor: FlavorStream, Header: hdr}

	// The trailer index, when it survived, is the authority on chunk
	// count, CRCs and (v2) leaf hashes. Any structural damage to it —
	// missing end magic, bad trailer length, CRC mismatch, an entry out of
	// range — is an error, and the survey falls back to the frames alone.
	refs, root, rootOK, trailerErr := fetchStreamTrailer(NewBytesFetcher(blob), int64(len(blob)), hdr, version, prologueLen)
	s.Root, s.RootVerified = root, rootOK
	ix := &ContainerIndex{Flavor: FlavorStream, Header: hdr, Chunks: refs, Root: root} // no entries if trailerErr

	// Frame walk: each frame carries its own length ‖ planes ‖ CRC header,
	// so intact frames before the damage point are recoverable even when
	// everything after is gone.
	c := cursor{b: blob, pos: prologueLen}
	sawEnd := false
	for {
		length := c.uvarint()
		if c.err == nil && length == 0 {
			sawEnd = true
			break
		}
		planes, crc := c.uvarint(), c.u32()
		// A frame header out of range means the walk has derailed (the
		// previous frame's length field was damaged); everything from here
		// on is unrecoverable.
		if c.err != nil || length > maxStreamChunkBytes || planes == 0 || planes > grid.MaxElems {
			s.Truncated = true
			break
		}
		i := len(s.Chunks)
		sc := SurveyChunk{Index: i, Length: int(length), Planes: int(planes)}
		payload := c.take(length)
		switch {
		case c.err != nil:
			sc.State = ChunkMissing
			sc.Detail = fmt.Sprintf("frame payload extends past the %d-byte artifact", len(blob))
			s.Truncated = true
		case crc32.ChecksumIEEE(payload) != crc:
			sc.State = ChunkCorrupt
			sc.Detail = "frame payload CRC32 disagrees with its header"
		default:
			sc.judge(ix, payload)
		}
		s.Chunks = append(s.Chunks, sc)
		if c.err != nil {
			break
		}
	}
	if sawEnd && trailerErr != nil {
		// Frames ended cleanly but the trailer would not parse: the damage
		// is in the index, not the payloads.
		s.Truncated = true
	}
	if trailerErr == nil && len(s.Chunks) < len(refs) {
		// The trailer promises more chunks than the frame walk found.
		for i := len(s.Chunks); i < len(refs); i++ {
			s.Chunks = append(s.Chunks, SurveyChunk{
				Index: i, Length: refs[i].Length, Planes: refs[i].Planes,
				State: ChunkMissing, Detail: "frame never arrived (truncated stream)",
			})
		}
		s.Truncated = true
	}
	if len(s.Chunks) == 0 {
		return nil, fmt.Errorf("fzio: unsalvageable stream artifact: no complete frame before the damage point")
	}
	return s, nil
}

// surveyMonolithic classifies an FZMD artifact as a single chunk: intact
// when it parses (Unmarshal verifies every segment CRC), corrupt
// otherwise. A monolithic container has no independent sub-units, so
// there is no finer salvage granularity.
func surveyMonolithic(blob []byte) (*Survey, error) {
	hdr, err := ParseMonolithicHeader(blob)
	if err != nil {
		return nil, fmt.Errorf("fzio: unsalvageable monolithic artifact: %w", err)
	}
	s := &Survey{Flavor: FlavorMonolithic, Header: hdr}
	sc := SurveyChunk{Index: 0, Length: len(blob), Planes: hdr.Dims.SlowExtent()}
	if _, err := Unmarshal(blob); err != nil {
		sc.State = ChunkCorrupt
		sc.Detail = err.Error()
	} else {
		sc.State = ChunkIntact
		sc.payload = blob
	}
	s.Chunks = append(s.Chunks, sc)
	return s, nil
}

// SalvageChunked rebuilds a fully valid FZMC container from every intact
// chunk of the artifact behind f. The salvaged container covers the
// intact chunks' planes contiguously — its slow extent is the sum of the
// surviving plane counts, recorded via the header geometry — and every
// recovered payload is bit-identical to the original chunk, so decoding
// the salvaged container reproduces the surviving slabs exactly. The
// returned Survey says which chunks made it. Errors when no chunk at all
// survived.
//
// A salvaged container is a standard version-2 FZMC artifact: CRCs, leaf
// hashes and Merkle root are recomputed over the surviving chunks, so
// every reader (including proof-checked region reads) accepts it.
func SalvageChunked(f ChunkFetcher) ([]byte, *Survey, error) {
	s, err := SurveyArtifact(f)
	if err != nil {
		return nil, nil, err
	}
	var chunks [][]byte
	var planes []int
	total := 0
	for _, sc := range s.Chunks {
		if sc.State != ChunkIntact {
			continue
		}
		chunks = append(chunks, sc.payload)
		planes = append(planes, sc.Planes)
		total += sc.Planes
	}
	if len(chunks) == 0 {
		return nil, s, fmt.Errorf("fzio: nothing to salvage: no intact chunk in %s artifact", s.Flavor)
	}
	hdr := s.Header
	hdr.Dims = hdr.Dims.WithSlowExtent(total)
	out, err := MarshalChunked(hdr, chunks, planes)
	if err != nil {
		return nil, s, fmt.Errorf("fzio: rebuilding salvaged container: %w", err)
	}
	return out, s, nil
}
