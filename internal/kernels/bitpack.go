package kernels

// Bit-level packing primitives shared by the fixed-length encoder (cuSZp2
// baseline) and the bitshuffle encoders (FZ-GPU, PFPL, FZMod-Speed); the
// bitshuffle kernels themselves are dispatched (kernels/dispatch).

// PackBits packs the low `width` bits of each value in vals into a dense
// little-endian bit stream appended to dst, returning the extended slice.
// width must be in [0, 32]; width 0 appends nothing.
func PackBits(dst []byte, vals []uint32, width int) []byte {
	if width == 0 {
		return dst
	}
	totalBits := len(vals) * width
	need := (totalBits + 7) / 8
	start := len(dst)
	dst = append(dst, make([]byte, need)...)
	bitPos := 0
	for _, v := range vals {
		v &= widthMask(width)
		bytePos := start + bitPos/8
		shift := uint(bitPos % 8)
		// A value spans at most 5 bytes for width<=32 plus shift<8.
		acc := uint64(v) << shift
		for b := 0; acc != 0; b++ {
			dst[bytePos+b] |= byte(acc)
			acc >>= 8
		}
		bitPos += width
	}
	return dst
}

// UnpackBits extracts n values of `width` bits each from src starting at
// bitOffset, returning the values and the bit offset just past them.
func UnpackBits(src []byte, bitOffset, n, width int) ([]uint32, int) {
	out := make([]uint32, n)
	if width == 0 {
		return out, bitOffset
	}
	mask := widthMask(width)
	pos := bitOffset
	for i := 0; i < n; i++ {
		bytePos := pos / 8
		shift := uint(pos % 8)
		var acc uint64
		for b := 0; b < 5 && bytePos+b < len(src); b++ {
			acc |= uint64(src[bytePos+b]) << (8 * uint(b))
		}
		out[i] = uint32(acc>>shift) & mask
		pos += width
	}
	return out, pos
}

func widthMask(width int) uint32 {
	if width >= 32 {
		return ^uint32(0)
	}
	return (1 << uint(width)) - 1
}

// BitsFor returns the number of bits needed to represent v (0 → 0 bits).
func BitsFor(v uint32) int {
	n := 0
	for v != 0 {
		n++
		v >>= 1
	}
	return n
}

// ZigZag maps a signed delta to an unsigned code with small magnitudes
// mapping to small codes: 0→0, -1→1, 1→2, -2→3, ...
func ZigZag(v int32) uint32 { return uint32((v << 1) ^ (v >> 31)) }

// UnZigZag inverts ZigZag.
func UnZigZag(u uint32) int32 { return int32(u>>1) ^ -int32(u&1) }

// ZigZag16 is the wrapping 16-bit zigzag map, a bijection on uint16: the
// fzg encoder recenters arbitrary code alphabets with it without overflow.
func ZigZag16(v int16) uint16 { return uint16((v << 1) ^ (v >> 15)) }

// UnZigZag16 inverts ZigZag16.
func UnZigZag16(u uint16) int16 { return int16(u>>1) ^ -int16(u&1) }
