package dispatch

import "encoding/binary"

// The portable bitshuffle kernels: a word-level bit-matrix transpose, 64
// values per iteration, so every plane store is one 8-byte word.
//
// Sixty-four uint16 values fill 16 uint64 words, four to a word. A bit's
// address is (value index v5..v0, bit index b3..b0): on input the word
// index is v5 v4 v3 v2 and the position in the word v1 v0 b3 b2 b1 b0; on
// output the word index is the plane b and the position is v. A delta swap
// between two words whose indexes differ in one bit exchanges that
// word-index bit with one position bit — the step of the classic 8×8 bit
// transpose (shifts 1, 2, 4) and its byte-level continuation (8, 16, 32),
// run across words instead of inside one. Six swaps bring every bit of v
// into the position; the plane index ends up rotated in the word index
// (planeWord). Swaps on disjoint address bits commute and each is its own
// inverse, so the inverse transpose is the same swaps with the two that
// share a word-index bit taken in the other order.
//
// The 32-bit kernels run the same 16-word transpose twice per group, over
// the low and the high halves of the values.
//
// The 16-bit kernels also carry the fzg encoder's recentring, applied to
// the four lanes of a loaded word at once (zigzagSub4, zigzagAdd4).

const (
	swapMask1  = 0x5555555555555555
	swapMask2  = 0x3333333333333333
	swapMask4  = 0x0F0F0F0F0F0F0F0F
	swapMask8  = 0x00FF00FF00FF00FF
	swapMask16 = 0x0000FFFF0000FFFF
	swapMask32 = 0x00000000FFFFFFFF
)

// dswap exchanges the bits of a selected by m<<s with the bits of b
// selected by m.
func dswap(a, b uint64, s uint, m uint64) (uint64, uint64) {
	t := (a>>s ^ b) & m
	return a ^ t<<s, b ^ t
}

const (
	laneHigh = 0x8000800080008000 // bit 15 of each 16-bit lane
	laneLow  = 0x0001000100010001 // bit 0 of each lane, and the broadcast multiplier
)

// zigzagSub4 maps each 16-bit lane v of x to ZigZag16(v - c), c being the
// lane of cs (the same in all four): a lane-wise wrapping subtract, then
// (d<<1) ^ (d>>15) with the sign spread by a multiply.
func zigzagSub4(x, cs uint64) uint64 {
	d := ((x | laneHigh) - (cs &^ laneHigh)) ^ ((x ^ ^cs) & laneHigh)
	sign := ((d & laneHigh) >> 15) * 0xFFFF
	return ((d &^ laneHigh) << 1) ^ sign
}

// zigzagAdd4 inverts zigzagSub4: UnZigZag16 of each lane, plus c.
func zigzagAdd4(x, cs uint64) uint64 {
	sign := (x & laneLow) * 0xFFFF
	v := ((x >> 1) &^ laneHigh) ^ sign
	return ((v &^ laneHigh) + (cs &^ laneHigh)) ^ ((v ^ cs) & laneHigh)
}

// transpose16 carries 64 uint16 values, four per word, to 16 plane words,
// plane p in w[planeWord(p)]: word-index bits 3 and 2 take position bits 5
// and 4 (v5, v4 move out of the word index, v1, v0 in), then 1 and 0 (v1, v0
// out, b1, b0 in).
func transpose16(w *[16]uint64) {
	swapHighIndexBits(w, 32, 16, swapMask32, swapMask16)
	swapHighIndexBits(w, 2, 1, swapMask2, swapMask1)
	swapLowIndexBits(w)
}

// untranspose16 inverts transpose16.
func untranspose16(w *[16]uint64) {
	swapLowIndexBits(w)
	swapHighIndexBits(w, 2, 1, swapMask2, swapMask1)
	swapHighIndexBits(w, 32, 16, swapMask32, swapMask16)
}

// swapHighIndexBits exchanges word-index bits 3 and 2 with the position bits
// whose shifts are s3 and s2.
func swapHighIndexBits(w *[16]uint64, s3, s2 uint, m3, m2 uint64) {
	for i := 0; i < 4; i++ {
		a, b, c, d := w[i], w[i+4], w[i+8], w[i+12]
		a, c = dswap(a, c, s3&63, m3)
		b, d = dswap(b, d, s3&63, m3)
		a, b = dswap(a, b, s2&63, m2)
		c, d = dswap(c, d, s2&63, m2)
		w[i], w[i+4], w[i+8], w[i+12] = a, b, c, d
	}
}

// swapLowIndexBits exchanges word-index bits 1 and 0 with position bits 3
// and 2 (v3, v2 against b3, b2); it is an involution.
func swapLowIndexBits(w *[16]uint64) {
	for i := 0; i < 16; i += 4 {
		a, b, c, d := w[i], w[i+1], w[i+2], w[i+3]
		a, c = dswap(a, c, 8, swapMask8)
		b, d = dswap(b, d, 8, swapMask8)
		a, b = dswap(a, b, 4, swapMask4)
		c, d = dswap(c, d, 4, swapMask4)
		w[i], w[i+1], w[i+2], w[i+3] = a, b, c, d
	}
}

// planeWord is the index in a transposed group of the word holding plane p
// (p < 16): the word index reads b1 b0 b3 b2.
func planeWord(p int) int { return (p&3)<<2 | p>>2 }

// planeStride is the byte length of one bit-plane of n values.
func planeStride(n int) int { return (n + 7) / 8 }

// storePlanes writes the 16 plane words of a transposed group to
// dst[p*stride:] for p < 16, rem bytes each: 8 for every whole group, fewer
// only for the last, partial group of a plane.
func storePlanes(dst []byte, stride, rem int, w *[16]uint64) {
	if rem >= 8 {
		for p := 0; p < 16; p += 4 {
			// planeWord(p+j) = 4j + p/4.
			binary.LittleEndian.PutUint64(dst[p*stride:], w[p>>2])
			binary.LittleEndian.PutUint64(dst[(p+1)*stride:], w[4+p>>2])
			binary.LittleEndian.PutUint64(dst[(p+2)*stride:], w[8+p>>2])
			binary.LittleEndian.PutUint64(dst[(p+3)*stride:], w[12+p>>2])
		}
		return
	}
	for p := 0; p < 16; p++ {
		word := w[planeWord(p)]
		for i := 0; i < rem; i++ {
			dst[p*stride+i] = byte(word >> (8 * uint(i)))
		}
	}
}

// loadPlanes inverts storePlanes; bytes past rem read as zero.
func loadPlanes(w *[16]uint64, src []byte, stride, rem int) {
	if rem >= 8 {
		for p := 0; p < 16; p += 4 {
			w[p>>2] = binary.LittleEndian.Uint64(src[p*stride:])
			w[4+p>>2] = binary.LittleEndian.Uint64(src[(p+1)*stride:])
			w[8+p>>2] = binary.LittleEndian.Uint64(src[(p+2)*stride:])
			w[12+p>>2] = binary.LittleEndian.Uint64(src[(p+3)*stride:])
		}
		return
	}
	for p := 0; p < 16; p++ {
		var word uint64
		for i := 0; i < rem; i++ {
			word |= uint64(src[p*stride+i]) << (8 * uint(i))
		}
		w[planeWord(p)] = word
	}
}

func bitshuffle16PureGo(dst []byte, vals []uint16, center uint16) {
	bitshuffle16From(dst, vals, center, 0)
}

// bitshuffle16From shuffles vals[from:] into their place in the planes of
// the whole of vals; from must be a multiple of 64. Vector tiers finish
// their tails with it.
func bitshuffle16From(dst []byte, vals []uint16, center uint16, from int) {
	n := len(vals)
	stride := planeStride(n)
	dst = dst[:16*stride]
	cs := uint64(center) * laneLow
	var w [16]uint64
	var tail [64]uint16
	for g := from; g < n; g += 64 {
		v := &tail
		if n-g >= 64 {
			v = (*[64]uint16)(vals[g:])
		} else {
			// Pad lanes recentre to zero, like the pad bits they become.
			for i := range tail {
				tail[i] = center
			}
			copy(tail[:], vals[g:])
		}
		// Constant indexes let the compiler merge each line into one load.
		w[0] = uint64(v[0]) | uint64(v[1])<<16 | uint64(v[2])<<32 | uint64(v[3])<<48
		w[1] = uint64(v[4]) | uint64(v[5])<<16 | uint64(v[6])<<32 | uint64(v[7])<<48
		w[2] = uint64(v[8]) | uint64(v[9])<<16 | uint64(v[10])<<32 | uint64(v[11])<<48
		w[3] = uint64(v[12]) | uint64(v[13])<<16 | uint64(v[14])<<32 | uint64(v[15])<<48
		w[4] = uint64(v[16]) | uint64(v[17])<<16 | uint64(v[18])<<32 | uint64(v[19])<<48
		w[5] = uint64(v[20]) | uint64(v[21])<<16 | uint64(v[22])<<32 | uint64(v[23])<<48
		w[6] = uint64(v[24]) | uint64(v[25])<<16 | uint64(v[26])<<32 | uint64(v[27])<<48
		w[7] = uint64(v[28]) | uint64(v[29])<<16 | uint64(v[30])<<32 | uint64(v[31])<<48
		w[8] = uint64(v[32]) | uint64(v[33])<<16 | uint64(v[34])<<32 | uint64(v[35])<<48
		w[9] = uint64(v[36]) | uint64(v[37])<<16 | uint64(v[38])<<32 | uint64(v[39])<<48
		w[10] = uint64(v[40]) | uint64(v[41])<<16 | uint64(v[42])<<32 | uint64(v[43])<<48
		w[11] = uint64(v[44]) | uint64(v[45])<<16 | uint64(v[46])<<32 | uint64(v[47])<<48
		w[12] = uint64(v[48]) | uint64(v[49])<<16 | uint64(v[50])<<32 | uint64(v[51])<<48
		w[13] = uint64(v[52]) | uint64(v[53])<<16 | uint64(v[54])<<32 | uint64(v[55])<<48
		w[14] = uint64(v[56]) | uint64(v[57])<<16 | uint64(v[58])<<32 | uint64(v[59])<<48
		w[15] = uint64(v[60]) | uint64(v[61])<<16 | uint64(v[62])<<32 | uint64(v[63])<<48
		if center != 0 {
			for i, x := range &w {
				w[i] = zigzagSub4(x, cs)
			}
		}
		transpose16(&w)
		storePlanes(dst[g/8:], stride, stride-g/8, &w)
	}
}

func unbitshuffle16PureGo(dst []uint16, src []byte, center uint16) {
	unbitshuffle16From(dst, src, center, 0)
}

// unbitshuffle16From restores dst[from:] from the planes of the whole of
// dst; from must be a multiple of 64.
func unbitshuffle16From(dst []uint16, src []byte, center uint16, from int) {
	n := len(dst)
	stride := planeStride(n)
	src = src[:16*stride]
	cs := uint64(center) * laneLow
	var w [16]uint64
	var tail [64]uint16
	for g := from; g < n; g += 64 {
		loadPlanes(&w, src[g/8:], stride, stride-g/8)
		untranspose16(&w)
		v := &tail
		if n-g >= 64 {
			v = (*[64]uint16)(dst[g:])
		}
		for i, x := range &w {
			if center != 0 {
				x = zigzagAdd4(x, cs)
			}
			v[4*i&63], v[(4*i+1)&63], v[(4*i+2)&63], v[(4*i+3)&63] = uint16(x), uint16(x>>16), uint16(x>>32), uint16(x>>48)
		}
		if n-g < 64 {
			copy(dst[g:], tail[:])
		}
	}
}

// bitshuffle32PureGo is the 32-plane shuffle: planes 0-15 come from the low
// halves of a group of 64 values, planes 16-31 from the high halves.
func bitshuffle32PureGo(dst []byte, vals []uint32) {
	n := len(vals)
	stride := planeStride(n)
	dst = dst[:32*stride]
	var w [16]uint64
	var tail [64]uint32
	for g := 0; g < n; g += 64 {
		v := &tail
		if n-g >= 64 {
			v = (*[64]uint32)(vals[g:])
		} else {
			copy(tail[:], vals[g:])
		}
		for half := uint(0); half < 2; half++ {
			sh := 16 * half
			for i := range w {
				w[i] = uint64(uint16(v[4*i&63]>>sh)) | uint64(uint16(v[(4*i+1)&63]>>sh))<<16 |
					uint64(uint16(v[(4*i+2)&63]>>sh))<<32 | uint64(uint16(v[(4*i+3)&63]>>sh))<<48
			}
			transpose16(&w)
			storePlanes(dst[int(sh)*stride+g/8:], stride, stride-g/8, &w)
		}
	}
}

// unbitshuffle32PureGo inverts bitshuffle32PureGo.
func unbitshuffle32PureGo(dst []uint32, src []byte) {
	n := len(dst)
	stride := planeStride(n)
	src = src[:32*stride]
	var lo, hi [16]uint64
	var tail [64]uint32
	for g := 0; g < n; g += 64 {
		loadPlanes(&lo, src[g/8:], stride, stride-g/8)
		loadPlanes(&hi, src[16*stride+g/8:], stride, stride-g/8)
		untranspose16(&lo)
		untranspose16(&hi)
		v := &tail
		if n-g >= 64 {
			v = (*[64]uint32)(dst[g:])
		}
		for i := range lo {
			l, h := lo[i], hi[i]
			v[4*i&63] = uint32(uint16(l)) | uint32(uint16(h))<<16
			v[(4*i+1)&63] = uint32(uint16(l>>16)) | uint32(uint16(h>>16))<<16
			v[(4*i+2)&63] = uint32(uint16(l>>32)) | uint32(uint16(h>>32))<<16
			v[(4*i+3)&63] = uint32(l>>48) | uint32(h>>48)<<16
		}
		if n-g < 64 {
			copy(dst[g:], tail[:])
		}
	}
}
