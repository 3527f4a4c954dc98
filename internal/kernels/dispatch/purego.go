package dispatch

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The portable reference kernels. These are the word-level scalar loops the
// repo's PR-4 rewrite established (four accumulator lanes, 8-way unrolls,
// borrow-trick zero scanning); every vector tier is tested bit-identical
// against them, so they are both the fallback and the specification.

func quantizeF32PureGo(data []float32, q []int32, scale, lim float64) bool {
	for i, v := range data {
		t := math.Round(float64(v) * scale)
		// The negated in-range form rejects NaN too (both comparisons are
		// false for NaN), matching the vector tiers' ordered compares.
		if !(t <= lim && t >= -lim) {
			return false
		}
		q[i] = int32(t)
	}
	return true
}

func diffCodes1PureGo(q []int32, codes []uint16, r32 int32) {
	for i := range codes {
		d := q[i+1] - q[i]
		if d > -r32 && d < r32 {
			codes[i] = uint16(d + r32)
		} else {
			codes[i] = 0
		}
	}
}

func diffCodes2PureGo(q, up []int32, codes []uint16, r32 int32) {
	for i := range codes {
		d := q[i+1] - q[i] - up[i+1] + up[i]
		if d > -r32 && d < r32 {
			codes[i] = uint16(d + r32)
		} else {
			codes[i] = 0
		}
	}
}

func diffCodes3PureGo(q, up, back, backUp []int32, codes []uint16, r32 int32) {
	for i := range codes {
		d := q[i+1] - q[i] - up[i+1] + up[i] - back[i+1] + back[i] + backUp[i+1] - backUp[i]
		if d > -r32 && d < r32 {
			codes[i] = uint16(d + r32)
		} else {
			codes[i] = 0
		}
	}
}

// lorenzoEncodeRowPureGo is the LorenzoEncodeRow specification, one
// element at a time: everything an element stores waits until it is known
// not to stop the row. A row with no accumulators, the 1-D case, takes a
// loop of its own, which encodes a 512 Ki-value HACC chunk about 15 %
// faster than the shared loop on a 2-vCPU Xeon; the shared loop's
// accumulator tests are loop-invariant, so they predict perfectly.
func lorenzoEncodeRowPureGo(data []float32, scale, lim float64, r32, left int32, above, behind []int32, codes []uint16, vals []int32) (int32, int, int, bool) {
	codes = codes[:len(data)]
	used := 0
	if len(above) == 0 && len(behind) == 0 {
		for i, v := range data {
			t := math.Round(float64(v) * scale)
			if !(t <= lim && t >= -lim) {
				return left, i, used, false
			}
			q := int32(t)
			if d := q - left; d > -r32 && d < r32 {
				codes[i] = uint16(d + r32)
			} else {
				if used == len(vals) {
					return left, i, used, true
				}
				codes[i] = 0
				vals[used] = d
				used++
			}
			left = q
		}
		return left, len(data), used, true
	}
	if len(above) > 0 {
		above = above[:len(data)]
	}
	if len(behind) > 0 {
		behind = behind[:len(data)]
	}
	for i, v := range data {
		t := math.Round(float64(v) * scale)
		if !(t <= lim && t >= -lim) {
			return left, i, used, false
		}
		q := int32(t)
		tz := q
		if len(behind) > 0 {
			tz -= behind[i]
		}
		u := tz
		if len(above) > 0 {
			u -= above[i]
		}
		if d := u - left; d > -r32 && d < r32 {
			codes[i] = uint16(d + r32)
		} else {
			if used == len(vals) {
				return left, i, used, true
			}
			codes[i] = 0
			vals[used] = d
			used++
		}
		if len(behind) > 0 {
			behind[i] = q
		}
		if len(above) > 0 {
			above[i] = tz
		}
		left = u
	}
	return left, len(data), used, true
}

// lorenzoRowPureGo is the LorenzoRow specification, one element at a time.
// The accumulator tests are loop-invariant, so they predict perfectly.
func lorenzoRowPureGo(codes []uint16, vals []int32, r32 int32, scale float64, acc int32, above, behind []int32, out []float32) (int32, int, int) {
	out = out[:len(codes)]
	if len(above) > 0 {
		above = above[:len(codes)]
	}
	if len(behind) > 0 {
		behind = behind[:len(codes)]
	}
	used := 0
	for i, c := range codes {
		d := int32(c) - r32
		if c == 0 {
			if used == len(vals) {
				return acc, i, used
			}
			d = vals[used]
			used++
		}
		acc += d
		v := acc
		if len(above) > 0 {
			v += above[i]
			above[i] = v
		}
		if len(behind) > 0 {
			v += behind[i]
			behind[i] = v
		}
		out[i] = float32(float64(v) * scale)
	}
	return acc, len(codes), used
}

// minMaxF32PureGo scans with four independent accumulator lanes, breaking
// the compare-update dependency chain. All lanes seed from data[0], so NaN
// elements (which never win a comparison) cannot leak into the result
// unless data[0] itself is NaN — the same policy the vector tiers follow.
func minMaxF32PureGo(data []float32) (mn, mx float32) {
	lmn, lmx := data[0], data[0]
	mn1, mx1 := lmn, lmx
	mn2, mx2 := lmn, lmx
	mn3, mx3 := lmn, lmx
	i := 0
	for ; i+4 <= len(data); i += 4 {
		v0, v1, v2, v3 := data[i], data[i+1], data[i+2], data[i+3]
		if v0 < lmn {
			lmn = v0
		}
		if v0 > lmx {
			lmx = v0
		}
		if v1 < mn1 {
			mn1 = v1
		}
		if v1 > mx1 {
			mx1 = v1
		}
		if v2 < mn2 {
			mn2 = v2
		}
		if v2 > mx2 {
			mx2 = v2
		}
		if v3 < mn3 {
			mn3 = v3
		}
		if v3 > mx3 {
			mx3 = v3
		}
	}
	for ; i < len(data); i++ {
		if v := data[i]; v < lmn {
			lmn = v
		} else if v > lmx {
			lmx = v
		}
	}
	if mn1 < lmn {
		lmn = mn1
	}
	if mn2 < lmn {
		lmn = mn2
	}
	if mn3 < lmn {
		lmn = mn3
	}
	if mx1 > lmx {
		lmx = mx1
	}
	if mx2 > lmx {
		lmx = mx2
	}
	if mx3 > lmx {
		lmx = mx3
	}
	return lmn, lmx
}

func histAccumPureGo(tabs []uint32, codes []uint16, bins int) bool {
	t0 := tabs[:bins]
	t1 := tabs[bins : 2*bins]
	t2 := tabs[2*bins : 3*bins]
	t3 := tabs[3*bins : 4*bins]
	i := 0
	for ; i+8 <= len(codes); i += 8 {
		c0, c1, c2, c3 := codes[i], codes[i+1], codes[i+2], codes[i+3]
		c4, c5, c6, c7 := codes[i+4], codes[i+5], codes[i+6], codes[i+7]
		if int(c0) >= bins || int(c1) >= bins || int(c2) >= bins || int(c3) >= bins ||
			int(c4) >= bins || int(c5) >= bins || int(c6) >= bins || int(c7) >= bins {
			return false
		}
		t0[c0]++
		t1[c1]++
		t2[c2]++
		t3[c3]++
		t0[c4]++
		t1[c5]++
		t2[c6]++
		t3[c7]++
	}
	for ; i < len(codes); i++ {
		c := codes[i]
		if int(c) >= bins {
			return false
		}
		t0[c]++
	}
	return true
}

func histMergePureGo(out, tabs []uint32) {
	b := len(out)
	t0 := tabs[:b]
	t1 := tabs[b : 2*b]
	t2 := tabs[2*b : 3*b]
	t3 := tabs[3*b : 4*b]
	for i := range out {
		out[i] += t0[i] + t1[i] + t2[i] + t3[i]
	}
}

// nextZeroPureGo tests eight codes per iteration with the branch-free
// borrow trick ((c-1) &^ c has its top bit set exactly when c == 0) and
// only walks a group that contains a zero.
func nextZeroPureGo(codes []uint16) int {
	i := 0
	for ; i+8 <= len(codes); i += 8 {
		c0, c1, c2, c3 := codes[i], codes[i+1], codes[i+2], codes[i+3]
		c4, c5, c6, c7 := codes[i+4], codes[i+5], codes[i+6], codes[i+7]
		z := (c0-1)&^c0 | (c1-1)&^c1 | (c2-1)&^c2 | (c3-1)&^c3 |
			(c4-1)&^c4 | (c5-1)&^c5 | (c6-1)&^c6 | (c7-1)&^c7
		if z&0x8000 != 0 {
			for j := i; ; j++ {
				if codes[j] == 0 {
					return j
				}
			}
		}
	}
	for ; i < len(codes); i++ {
		if codes[i] == 0 {
			return i
		}
	}
	return -1
}

func sumLengthsPureGo(lengths32 []uint32, codes []uint16) (uint64, bool) {
	var bits uint64
	for _, s := range codes {
		if int(s) >= len(lengths32) || lengths32[s] == 0 {
			return 0, false
		}
		bits += uint64(lengths32[s])
	}
	return bits, true
}

// emitRoom is the output room emitCodesPureGo requires before each group
// of four codes. A group advances out by at most 16 bytes (four 32-bit
// codes on top of 7 pending bits) and stores no further than 20 bytes in.
const emitRoom = 32

// emitCodesPureGo is the grouped Huffman emitter. Codes go four at a time:
// their codes are merged into one word w and their lengths summed into n,
// off the carried chain. When n is at most 56 the group costs one shift
// into acc and one unconditional 8-byte store; a wider group (rare: real
// codebooks stop at 15–19 bits) drops w and stores once per code. Shifts
// are masked to 63 so none needs a range check; a w built with larger
// shifts is never used. A group holding a code outside enc ends the loop
// before it.
func emitCodesPureGo(enc []uint64, codes []uint16, out []byte, acc uint64, nbits uint) (done, written int, accOut uint64, nbitsOut uint) {
	nc, no := len(codes), len(out)
	for ; len(codes) >= 4 && len(out) >= emitRoom; codes = codes[4:] {
		// Nothing is committed before the flush, so a code outside enc
		// can end the loop at any of the four checks.
		c := codes[0]
		if int(c) >= len(enc) {
			break
		}
		e := enc[c]
		w, n := e>>8, uint(e&0xff)
		if c = codes[1]; int(c) >= len(enc) {
			break
		}
		e = enc[c]
		w |= e >> 8 << (n & 63)
		n += uint(e & 0xff)
		if c = codes[2]; int(c) >= len(enc) {
			break
		}
		e = enc[c]
		w |= e >> 8 << (n & 63)
		n += uint(e & 0xff)
		if c = codes[3]; int(c) >= len(enc) {
			break
		}
		e = enc[c]
		w |= e >> 8 << (n & 63)
		n += uint(e & 0xff)
		if n <= 56 {
			acc |= w << (nbits & 63)
			nbits += n
			binary.LittleEndian.PutUint64(out, acc)
			out = out[nbits>>3:]
			acc >>= nbits &^ 7 & 63
			nbits &= 7
			continue
		}
		for _, s := range codes[:4] {
			e := enc[s]
			acc |= e >> 8 << (nbits & 63)
			nbits += uint(e & 0xff)
			binary.LittleEndian.PutUint64(out, acc)
			out = out[nbits>>3:]
			acc >>= nbits &^ 7 & 63
			nbits &= 7
		}
	}
	return nc - len(codes), no - len(out), acc, nbits
}

// decodeQuadPureGo is the four-lane decode loop. Each batch's window is
// the lane's next 57 stream bits with a sentinel bit above them: a step
// shifts the window by the code's length, so the sentinel's position
// gives the bits a lane consumed, recovered once per batch (or at a stop)
// instead of summed per step. A batch takes at most steps·maxLen ≤ 57
// bits per lane, so the sentinel never leaves the window and every lookup
// (at most maxLen bits) reads stream bits only.
func decodeQuadPureGo(table []uint32, fastBits, maxLen int, in [4][]byte, out [4][]uint16, bit [4]uint, oi int) (int, [4]uint) {
	steps := quadSteps(table, fastBits, maxLen, oi)
	fb := uint(fastBits)
	in0, in1, in2, in3 := in[0], in[1], in[2], in[3]
	out0, out1, out2, out3 := out[0], out[1], out[2], out[3]
	bit0, bit1, bit2, bit3 := bit[0], bit[1], bit[2], bit[3]
	for bit0>>3+8 <= uint(len(in0)) && bit1>>3+8 <= uint(len(in1)) && bit2>>3+8 <= uint(len(in2)) && bit3>>3+8 <= uint(len(in3)) &&
		oi+steps <= len(out0) && oi+steps <= len(out1) && oi+steps <= len(out2) && oi+steps <= len(out3) {
		acc0 := window57(in0, bit0)
		acc1 := window57(in1, bit1)
		acc2 := window57(in2, bit2)
		acc3 := window57(in3, bit3)
		w0, w1, w2, w3 := out0[oi:oi+steps], out1[oi:oi+steps], out2[oi:oi+steps], out3[oi:oi+steps]
		k := 0
		for ; k < steps; k++ {
			e0, e1, e2, e3 := Lookup(table, fb, acc0), Lookup(table, fb, acc1), Lookup(table, fb, acc2), Lookup(table, fb, acc3)
			if e0 < 1<<16 || e1 < 1<<16 || e2 < 1<<16 || e3 < 1<<16 {
				break
			}
			w0[k], w1[k], w2[k], w3[k] = uint16(e0), uint16(e1), uint16(e2), uint16(e3)
			acc0, acc1, acc2, acc3 = acc0>>(e0>>16&63), acc1>>(e1>>16&63), acc2>>(e2>>16&63), acc3>>(e3>>16&63)
		}
		bit0, bit1, bit2, bit3 = bit0+consumed57(acc0), bit1+consumed57(acc1), bit2+consumed57(acc2), bit3+consumed57(acc3)
		oi += k
		if k < steps {
			break
		}
	}
	return oi, [4]uint{bit0, bit1, bit2, bit3}
}

// window57 is the 57 stream bits at bit, which must have 8 readable bytes
// behind its byte, topped by the sentinel bit 57.
func window57(in []byte, bit uint) uint64 {
	return binary.LittleEndian.Uint64(in[bit>>3:])>>(bit&7)&(1<<57-1) | 1<<57
}

// consumed57 is the bits a window57 has been shifted by.
func consumed57(acc uint64) uint {
	return uint(58 - bits.Len64(acc))
}
