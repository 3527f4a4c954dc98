package fzio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"fzmod/internal/grid"
)

func merklePayloads(n int) [][]byte {
	ps := make([][]byte, n)
	for i := range ps {
		ps[i] = bytes.Repeat([]byte{byte(i + 1)}, 16+i*7)
	}
	return ps
}

func merkleRefs(payloads [][]byte) []ChunkRef {
	refs := make([]ChunkRef, len(payloads))
	for i, p := range payloads {
		refs[i].Hash = LeafHash(p)
	}
	return refs
}

func TestLeafHashDomainSeparation(t *testing.T) {
	payload := []byte("abc")
	// The leaf hash must NOT be the plain SHA-256 of the payload: the 0x00
	// prefix separates leaves from interior nodes so serialized node pairs
	// can never be replayed as leaves.
	plain := sha256.Sum256(payload)
	leaf := LeafHash(payload)
	if leaf == plain {
		t.Fatal("LeafHash equals plain SHA-256 — missing domain separation")
	}
	want := sha256.Sum256(append([]byte{0x00}, payload...))
	if leaf != want {
		t.Fatal("LeafHash diverges from SHA-256(0x00 || payload)")
	}
}

// TestMerkleRootKnownAnswers pins the root over merklePayloads(n) for
// tree shapes with and without odd levels. The roots are the ones every
// v2 artifact written so far carries, so a change here is a format
// change.
func TestMerkleRootKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		leaves int
		root   string
	}{
		{1, "d420b622997f78a73d9fb81a263b2dbafd714d89e0ce06fc2061479ddaa53cde"},
		{2, "d7f4d544f383400fcca47a39ad3064c5197279e8061cc29281059fbfd642d97b"},
		{3, "af30e90799062c17d5842263d4782cdbcaf6a3ed184e53c6109d8a019f175ff8"},
		{5, "53f4b997ce3efb7fa55982ed6df029ba3823c4bd0276101633efcfea06a17ae3"},
		{8, "4ad6b805e586e70d3a67e0e47ec6702fb333abfdd07d5185200ab90d6344dc15"},
	} {
		root := merkleRoot(merkleRefs(merklePayloads(tc.leaves)))
		if got := hex.EncodeToString(root[:]); got != tc.root {
			t.Errorf("%d leaves: root %s, want %s", tc.leaves, got, tc.root)
		}
	}
}

// Odd-level duplication must not let [a b] and [a b b] collide — the
// duplicated node changes the tree shape and therefore the root.
func TestMerkleRootOddDuplication(t *testing.T) {
	a, b := ChunkRef{Hash: LeafHash([]byte("a"))}, ChunkRef{Hash: LeafHash([]byte("b"))}
	if merkleRoot([]ChunkRef{a, b}) == merkleRoot([]ChunkRef{a, b, b}) {
		t.Fatal("[a b] and [a b b] share a root")
	}
}

func TestMerkleDeterministic(t *testing.T) {
	payloads := merklePayloads(5)
	refs := merkleRefs(payloads)
	r1 := merkleRoot(refs)
	if r2 := merkleRoot(refs); r2 != r1 {
		t.Fatal("same leaves, different roots")
	}
	if refs[0].Hash != LeafHash(payloads[0]) {
		t.Fatal("merkleRoot wrote into the caller's table")
	}
	payloads[2][0] ^= 1
	if r3 := merkleRoot(merkleRefs(payloads)); r3 == r1 {
		t.Fatal("changed leaf, unchanged root")
	}
}

// TestVerifyProofLeafHash is the per-payload integrity check every read
// door applies: on an artifact that records leaf hashes, a payload
// passes only if it hashes to the leaf its chunk table records for that
// chunk; on v1 and monolithic artifacts the check is vacuous.
func TestVerifyProofLeafHash(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 8}
	fzmc, h, chunks := testChunkedBlob(t, dims, 4)
	fzms := testStreamBlob(t, h, chunks, func(int) int { return 2 })
	flip := func(p []byte) []byte { p[0] ^= 0x80; return p }
	collide := func(p []byte) []byte {
		if !CorruptPreservingCRC32(p, 1) {
			t.Fatal("collision injector declined the payload")
		}
		return p
	}
	keep := func(p []byte) []byte { return p }
	errRange := errors.New("out of range")
	for _, tc := range []struct {
		name   string
		blob   []byte
		proofs bool // HasProofs
		chunk  int  // the chunk the payload is presented as
		from   int  // the chunk whose payload is presented
		tamper func([]byte) []byte
		crcOK  bool  // the presented payload passes VerifyChunk's CRC32 check
		want   error // nil, ErrProofMismatch or errRange
	}{
		{"v1 FZMC tampered", v1Fixture(t, "v1-default-hurr.fzmc"), false, 1, 1, flip, false, nil},
		{"FZMD tampered", v1Fixture(t, "v2-quality-cesm.fzmd"), false, 0, 0, flip, true, nil},
		{"v2 FZMC intact", fzmc, true, 1, 1, keep, true, nil},
		{"v2 FZMS intact", fzms, true, 3, 3, keep, true, nil},
		{"v2 FZMC tampered", fzmc, true, 1, 1, flip, false, ErrProofMismatch},
		{"v2 FZMS tampered", fzms, true, 2, 2, flip, false, ErrProofMismatch},
		{"v2 FZMC CRC-preserving tamper", fzmc, true, 2, 2, collide, true, ErrProofMismatch},
		{"v2 FZMS CRC-preserving tamper", fzms, true, 0, 0, collide, true, ErrProofMismatch},
		{"v2 FZMC another chunk's payload", fzmc, true, 1, 2, keep, false, ErrProofMismatch},
		{"v2 FZMC index past the end", fzmc, true, 4, 0, keep, false, errRange},
		{"v2 FZMS negative index", fzms, true, -1, 0, keep, false, errRange},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := FetchIndex(NewBytesFetcher(tc.blob))
			if err != nil {
				t.Fatal(err)
			}
			if ix.HasProofs() != tc.proofs {
				t.Fatalf("HasProofs = %v, want %v", ix.HasProofs(), tc.proofs)
			}
			ref := ix.Chunks[tc.from]
			payload := tc.tamper(bytes.Clone(tc.blob[ref.Offset : ref.Offset+ref.Length]))
			if tc.crcOK {
				// Past the CRC32, VerifyChunk's verdict is the leaf hash's.
				if err := ix.VerifyChunk(tc.chunk, payload); (err == nil) != (tc.want == nil) || !errors.Is(err, tc.want) {
					t.Fatalf("VerifyChunk = %v, want %v", err, tc.want)
				}
			}
			err = ix.VerifyProof(tc.chunk, payload)
			switch {
			case tc.want == nil && err != nil:
				t.Fatalf("VerifyProof: %v", err)
			case tc.want == ErrProofMismatch && !errors.Is(err, ErrProofMismatch):
				t.Fatalf("VerifyProof = %v, want ErrProofMismatch", err)
			case tc.want == errRange && (err == nil || errors.Is(err, ErrProofMismatch)):
				t.Fatalf("VerifyProof = %v, want an index error", err)
			}
		})
	}
}
