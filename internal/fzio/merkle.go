package fzio

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// This file is the integrity layer of the container formats: a Merkle
// tree over per-chunk content hashes. Version 2 FZMC and FZMS artifacts
// record each chunk's SHA-256 leaf hash in the chunk table and the
// tree's root alongside it, so a reader holding only the index can
// verify any subset of fetched chunks against the root via inclusion
// proofs — tamper evidence a per-chunk CRC32 cannot give, because a
// CRC is 32 bits, trivially forgeable, and stored next to the bytes it
// covers. The tree shape follows the classic audit-log construction:
// leaves are hashed with a 0x00 domain-separation prefix, interior
// nodes with 0x01 (so a leaf can never be replayed as a node), levels
// are built pairwise with the odd trailing node duplicated, and a
// proof is the sibling hash plus its side (left/right) per level.

// HashSize is the byte length of chunk leaf hashes and the Merkle root
// (SHA-256).
const HashSize = sha256.Size

// Domain-separation prefixes: a leaf hash and an interior-node hash of
// the same bytes must differ, or a forged "leaf" equal to a serialized
// node pair would verify (the classic second-preimage attack on
// unprefixed Merkle trees).
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// ErrProofMismatch marks a payload (or chunk table) whose hash
// contradicts the container's Merkle root: tampering or corruption that
// slipped past — or was crafted to pass — the CRC32 check (see
// CorruptPreservingCRC32).
var ErrProofMismatch = errors.New("fzio: Merkle proof mismatch")

// LeafHash computes the content hash of one chunk payload:
// SHA-256(0x00 ‖ payload).
func LeafHash(payload []byte) [HashSize]byte {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(payload)
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// nodeHash combines two child hashes: SHA-256(0x01 ‖ left ‖ right).
func nodeHash(left, right [HashSize]byte) [HashSize]byte {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(left[:])
	h.Write(right[:])
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// ProofStep is one level of an inclusion proof: the sibling hash to
// combine with, and the side it sits on (Left true means the sibling is
// the left operand of the parent hash).
type ProofStep struct {
	Hash [HashSize]byte
	Left bool
}

// MerkleTree is a complete Merkle tree over chunk leaf hashes. Level 0
// holds the leaves; each higher level hashes adjacent pairs, with an
// odd trailing node paired against a duplicate of itself, up to the
// single root. Build once with NewMerkleTree; all methods are
// read-only afterwards and safe for concurrent use.
type MerkleTree struct {
	levels [][][HashSize]byte
}

// NewMerkleTree builds the tree over leaves. At least one leaf is
// required (containers always hold at least one chunk).
func NewMerkleTree(leaves [][HashSize]byte) (*MerkleTree, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("fzio: Merkle tree needs at least one leaf")
	}
	level := append([][HashSize]byte(nil), leaves...)
	t := &MerkleTree{levels: [][][HashSize]byte{level}}
	for len(level) > 1 {
		next := make([][HashSize]byte, (len(level)+1)/2)
		for i := range next {
			left := level[2*i]
			right := left // odd trailing node: duplicated
			if 2*i+1 < len(level) {
				right = level[2*i+1]
			}
			next[i] = nodeHash(left, right)
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t, nil
}

// NumLeaves returns the leaf count.
func (t *MerkleTree) NumLeaves() int { return len(t.levels[0]) }

// Root returns the tree's root hash.
func (t *MerkleTree) Root() [HashSize]byte {
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// Proof returns the inclusion proof for leaf i: one sibling per level,
// bottom-up, such that folding the leaf hash through the steps
// reproduces the root.
func (t *MerkleTree) Proof(i int) ([]ProofStep, error) {
	if i < 0 || i >= t.NumLeaves() {
		return nil, fmt.Errorf("fzio: Merkle leaf %d out of range [0,%d)", i, t.NumLeaves())
	}
	var proof []ProofStep
	for _, level := range t.levels[:len(t.levels)-1] {
		sib := i ^ 1
		if sib >= len(level) {
			sib = i // odd trailing node pairs with itself
		}
		proof = append(proof, ProofStep{Hash: level[sib], Left: sib < i})
		i /= 2
	}
	return proof, nil
}

// VerifyProof folds leaf through proof and reports whether the result
// equals root — the check a client performs on a fetched chunk knowing
// only the chunk bytes, the proof, and the trusted root.
func VerifyProof(leaf [HashSize]byte, proof []ProofStep, root [HashSize]byte) bool {
	cur := leaf
	for _, step := range proof {
		if step.Left {
			cur = nodeHash(step.Hash, cur)
		} else {
			cur = nodeHash(cur, step.Hash)
		}
	}
	return cur == root
}

// merkleRoot builds the tree over the chunk table's recorded leaf
// hashes and returns its root — the value a v2 writer stores in the
// container.
func merkleRoot(refs []ChunkRef) ([HashSize]byte, error) {
	leaves := make([][HashSize]byte, len(refs))
	for i, ref := range refs {
		leaves[i] = ref.Hash
	}
	t, err := NewMerkleTree(leaves)
	if err != nil {
		return [HashSize]byte{}, err
	}
	return t.Root(), nil
}

// CorruptPreservingCRC32 XORs a nonzero error pattern into the last 8
// bytes of out, chosen so crc32.ChecksumIEEE(out) is unchanged, and
// reports whether it applied (ranges shorter than 8 bytes are left
// untouched): the adversarial tamper a 32-bit checksum cannot see and
// only Merkle proof verification catches. Integrity tests use it to
// build a CRC-colliding artifact. delta seeds the first half of the
// pattern; the second half is solved for.
//
// CRC32 is affine over GF(2): crc(a⊕b) = crc(a) ⊕ crc(b) ⊕ crc(0^len)
// for equal-length inputs, so the checksum is preserved exactly when
// the error pattern E (zeros outside the 8-byte tail window) satisfies
// crc(E) = crc(0^len). Writing E's window as d‖c with d fixed from
// delta, the condition is linear in c, and the 32×32 system over the
// window's last four bytes is invertible (its columns are the CRC
// residues of x^0..x^31 at the message end), so a compensation c always
// exists and is found by Gaussian elimination.
func CorruptPreservingCRC32(out []byte, delta uint32) bool {
	if delta == 0 || len(out) < 8 {
		return false
	}
	// CRC state after the unchanged zero prefix; φ(e) is then the CRC of
	// the full-length pattern 0^{len-8} ‖ e.
	base := crc32OfZeros(len(out) - 8)
	phi := func(e *[8]byte) uint32 { return crc32.Update(base, crc32.IEEETable, e[:]) }
	var zero [8]byte
	phi0 := phi(&zero)

	var d8 [8]byte
	binary.LittleEndian.PutUint32(d8[:4], delta)
	target := phi(&d8) ^ phi0 // ψ(d‖0): the CRC delta the tail must cancel

	// Basis: the CRC delta of each single bit of the window's last four
	// bytes.
	var cols [32]uint32
	for k := 0; k < 32; k++ {
		var b [8]byte
		b[4+k/8] = 1 << (k % 8)
		cols[k] = phi(&b) ^ phi0
	}
	x, ok := solveGF2(cols, target)
	if !ok {
		return false // unreachable: the system is invertible
	}
	w := out[len(out)-8:]
	for i := 0; i < 4; i++ {
		w[i] ^= d8[i]
	}
	for k := 0; k < 32; k++ {
		if x&(1<<k) != 0 {
			w[4+k/8] ^= 1 << (k % 8)
		}
	}
	return true
}

// crc32OfZeros returns the IEEE CRC32 state after n zero bytes.
func crc32OfZeros(n int) uint32 {
	var zeros [4096]byte
	crc := uint32(0)
	for n > 0 {
		k := n
		if k > len(zeros) {
			k = len(zeros)
		}
		crc = crc32.Update(crc, crc32.IEEETable, zeros[:k])
		n -= k
	}
	return crc
}

// solveGF2 solves A·x = target over GF(2), where A's k-th column is
// cols[k], by Gaussian elimination with combination tracking. Reports
// false when target is outside A's span.
func solveGF2(cols [32]uint32, target uint32) (uint32, bool) {
	var vec [32]uint32   // reduced vectors, indexed by leading bit
	var combo [32]uint32 // original columns composing each reduced vector
	for k := 0; k < 32; k++ {
		v, c := cols[k], uint32(1)<<k
		for v != 0 {
			b := bits.Len32(v) - 1
			if vec[b] == 0 {
				vec[b], combo[b] = v, c
				break
			}
			v ^= vec[b]
			c ^= combo[b]
		}
	}
	var x uint32
	for t := target; t != 0; {
		b := bits.Len32(t) - 1
		if vec[b] == 0 {
			return 0, false
		}
		t ^= vec[b]
		x ^= combo[b]
	}
	return x, true
}
