package fzio

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/bits"
)

// This file is the integrity layer of the container formats. Version 2
// FZMC and FZMS artifacts record each chunk's SHA-256 leaf hash in the
// chunk table and a Merkle root over those hashes after it. Every reader
// parses the whole table and refuses one whose root does not rebuild from
// its own leaf hashes, so the table is tamper-evident as a whole; a
// fetched payload is then checked against its own leaf hash — tamper
// evidence a per-chunk CRC32 cannot give, because a CRC is 32 bits,
// trivially forgeable, and stored next to the bytes it covers. The tree
// shape follows the classic audit-log construction: leaves are hashed
// with a 0x00 domain-separation prefix, interior nodes with 0x01 (so a
// leaf can never be replayed as a node), and levels are built pairwise
// with the odd trailing node duplicated.

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

// ErrProofMismatch marks a payload whose SHA-256 leaf hash differs from
// the one its chunk table records, or a chunk table whose Merkle root
// does not rebuild from its own leaf hashes: tampering or corruption that
// slipped past — or was crafted to pass — the CRC32 check (see
// CorruptPreservingCRC32).
var ErrProofMismatch = errors.New("fzio: hash mismatch")

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

// merkleRoot returns the Merkle root over the chunk table's recorded
// leaf hashes — the one root builder, shared by the writers that store it
// and the readers that check a stored root against the table. Each level
// hashes adjacent pairs, an odd trailing node paired with a duplicate of
// itself, up to a single node. Containers always hold at least one chunk;
// an empty table yields the zero hash, which no reader accepts.
func merkleRoot(refs []ChunkRef) [HashSize]byte {
	if len(refs) == 0 {
		return [HashSize]byte{}
	}
	level := make([][HashSize]byte, len(refs))
	for i, ref := range refs {
		level[i] = ref.Hash
	}
	for len(level) > 1 {
		// In place: node i reads nodes 2i and 2i+1, never one already
		// overwritten.
		next := level[:(len(level)+1)/2]
		for i := range next {
			left := level[2*i]
			right := left // odd trailing node: duplicated
			if 2*i+1 < len(level) {
				right = level[2*i+1]
			}
			next[i] = nodeHash(left, right)
		}
		level = next
	}
	return level[0]
}

// CorruptPreservingCRC32 XORs a nonzero error pattern into the last 8
// bytes of out, chosen so crc32.ChecksumIEEE(out) is unchanged, and
// reports whether it applied (ranges shorter than 8 bytes are left
// untouched): the adversarial tamper a 32-bit checksum cannot see and
// only the leaf-hash check (ContainerIndex.VerifyChunk) catches. Integrity tests use it to
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
