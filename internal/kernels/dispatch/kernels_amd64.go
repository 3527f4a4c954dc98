//go:build amd64 && !purego

package dispatch

import "math"

// Assembly cores (kernels_amd64.s). Each processes the longest prefix its
// vector width covers (8 or 16 elements per iteration, unaligned loads, so
// any slice alignment is fine); the Go wrappers finish the scalar tails
// with the purego reference, which keeps every result bit-identical to the
// fallback at any length.

func quantAVX2Asm(data []float32, q []int32, scale, lim float64) bool
func diff1AVX2Asm(q []int32, codes []uint16, r32 int32)
func diff2AVX2Asm(q, up []int32, codes []uint16, r32 int32)
func diff3AVX2Asm(q, up, back, backUp []int32, codes []uint16, r32 int32)
func lorenzoEncodeRowAVX2Asm(data []float32, scale, limh float64, r32, left int32, above, behind []int32, codes []uint16, vals []int32) (next int32, done, used int)
func lorenzoRowAVX2Asm(codes []uint16, vals []int32, r32 int32, scale float64, acc int32, above, behind []int32, out []float32) (next int32, done, used int)
func minMaxAVX2Asm(data []float32) (mn, mx float32)
func histAccumAVX2Asm(tabs []uint32, codes []uint16, bins int) bool
func histMergeAVX2Asm(out, tabs []uint32, stride int)
func nextZeroAVX2Asm(codes []uint16) int
func sumLengthsAVX2Asm(lengths32 []uint32, codes []uint16) (sum uint64, ok bool)
func emitCodesAVX2Asm(enc []uint64, codes []uint16, out []byte, acc uint64, nbits uint) (done, written int, accOut uint64, nbitsOut uint)
func decodeQuadAVX2Asm(table []uint32, fastBits, steps int, in [4][]byte, out [4][]uint16, bit [4]uint, oi int) (oiOut int, bitOut [4]uint)

// bitshuffle_amd64.s: whole groups of 32 values against planes of stride bytes.
func bitshuffle16AVX2Asm(dst []byte, vals []uint16, stride int, center uint16)
func unbitshuffle16AVX2Asm(dst []uint16, src []byte, stride int, center uint16)

func quantizeF32AVX2(data []float32, q []int32, scale, lim float64) bool {
	n8 := len(data) &^ 7
	if n8 > 0 && !quantAVX2Asm(data[:n8], q[:n8], scale, lim) {
		return false
	}
	return quantizeF32PureGo(data[n8:], q[n8:len(data)], scale, lim)
}

// maxPackRadius bounds the quantizer radius the assembly diff kernels can
// pack exactly: in-range codes are d+r32 in (0, 2*r32), and VPACKUSDW's
// unsigned saturation matches Go's uint16 conversion only up to 65535.
// Codes are uint16 so real codebooks never exceed this; larger radii (only
// reachable through direct kernel calls) take the reference path.
const maxPackRadius = 1 << 15

func diffCodes1AVX2(q []int32, codes []uint16, r32 int32) {
	if r32 > maxPackRadius {
		diffCodes1PureGo(q, codes, r32)
		return
	}
	n8 := len(codes) &^ 7
	if n8 > 0 {
		diff1AVX2Asm(q, codes[:n8], r32)
	}
	diffCodes1PureGo(q[n8:], codes[n8:], r32)
}

func diffCodes2AVX2(q, up []int32, codes []uint16, r32 int32) {
	if r32 > maxPackRadius {
		diffCodes2PureGo(q, up, codes, r32)
		return
	}
	n8 := len(codes) &^ 7
	if n8 > 0 {
		diff2AVX2Asm(q, up, codes[:n8], r32)
	}
	diffCodes2PureGo(q[n8:], up[n8:], codes[n8:], r32)
}

func diffCodes3AVX2(q, up, back, backUp []int32, codes []uint16, r32 int32) {
	if r32 > maxPackRadius {
		diffCodes3PureGo(q, up, back, backUp, codes, r32)
		return
	}
	n8 := len(codes) &^ 7
	if n8 > 0 {
		diff3AVX2Asm(q, up, back, backUp, codes[:n8], r32)
	}
	diffCodes3PureGo(q[n8:], up[n8:], back[n8:], backUp[n8:], codes[n8:], r32)
}

// packLanes[m] lists the lanes set in the 8-bit mask m, lowest first, one
// byte each: the VPERMD indexes that left-pack those lanes.
var packLanes = func() (t [256]uint64) {
	for m := range t {
		k := 0
		for lane := 0; lane < 8; lane++ {
			if m>>lane&1 != 0 {
				t[m] |= uint64(lane) << (8 * k)
				k++
			}
		}
	}
	return t
}()

// lorenzoEncodeRowAVX2 runs the asm core over whole groups of eight
// values. The core leaves a group holding a value outside the lattice
// guard, or an escape when fewer than eight vals are left; the reference
// takes that group, stopping where the contract stops, and the tail.
func lorenzoEncodeRowAVX2(data []float32, scale, lim float64, r32, left int32, above, behind []int32, codes []uint16, vals []int32) (int32, int, int, bool) {
	if r32 > maxPackRadius {
		return lorenzoEncodeRowPureGo(data, scale, lim, r32, left, above, behind, codes, vals)
	}
	n8 := len(data) &^ 7
	// Slicing the outputs to n8 bounds-checks them for the core.
	codes8, ab, bh := codes[:n8], above, behind
	if len(ab) > 0 {
		ab = ab[:n8]
	}
	if len(bh) > 0 {
		bh = bh[:n8]
	}
	limh := math.Floor(lim) + 0.5
	done, used := 0, 0
	for done < n8 {
		var k, u int
		left, k, u = lorenzoEncodeRowAVX2Asm(data[done:n8], scale, limh, r32, left, tail(ab, done), tail(bh, done), codes8[done:], vals[used:])
		done, used = done+k, used+u
		if done == n8 {
			break
		}
		var ok bool
		left, k, u, ok = lorenzoEncodeRowPureGo(data[done:done+8], scale, lim, r32, left, tail(ab, done), tail(bh, done), codes8[done:], vals[used:])
		done, used = done+k, used+u
		if !ok || k < 8 {
			return left, done, used, ok
		}
	}
	if done == len(data) {
		return left, done, used, true
	}
	left, k, u, ok := lorenzoEncodeRowPureGo(data[done:], scale, lim, r32, left, tail(above, done), tail(behind, done), codes[done:], vals[used:])
	return left, done + k, used + u, ok
}

// lorenzoRowAVX2 runs the asm core over whole groups of eight codes. The
// core patches outlier values into escape groups itself while at least
// eight values are left; a group it leaves (at most the last few escapes
// of a field) and the tail run through the reference.
func lorenzoRowAVX2(codes []uint16, vals []int32, r32 int32, scale float64, acc int32, above, behind []int32, out []float32) (int32, int, int) {
	n8 := len(codes) &^ 7
	// Slicing the accumulators to n8 bounds-checks them for the core.
	ab, bh := above, behind
	if len(ab) > 0 {
		ab = ab[:n8]
	}
	if len(bh) > 0 {
		bh = bh[:n8]
	}
	out8 := out[:n8]
	done, used := 0, 0
	for done < n8 {
		var k, u int
		acc, k, u = lorenzoRowAVX2Asm(codes[done:n8], vals[used:], r32, scale, acc, tail(ab, done), tail(bh, done), out8[done:])
		done, used = done+k, used+u
		if done == n8 {
			break
		}
		acc, k, u = lorenzoRowPureGo(codes[done:done+8], vals[used:], r32, scale, acc, tail(ab, done), tail(bh, done), out8[done:])
		done, used = done+k, used+u
		if k < 8 {
			return acc, done, used // vals spent
		}
	}
	acc, k, u := lorenzoRowPureGo(codes[done:], vals[used:], r32, scale, acc, tail(above, done), tail(behind, done), out[done:])
	return acc, done + k, used + u
}

// tail is s[from:] for a present accumulator and leaves an absent one
// absent.
func tail(s []int32, from int) []int32 {
	if len(s) == 0 {
		return nil
	}
	return s[from:]
}

func minMaxF32AVX2(data []float32) (float32, float32) {
	n8 := len(data) &^ 7
	if n8 < 32 {
		return minMaxF32PureGo(data)
	}
	mn, mx := minMaxAVX2Asm(data[:n8])
	for _, v := range data[n8:] {
		if v < mn {
			mn = v
		} else if v > mx {
			mx = v
		}
	}
	return mn, mx
}

func histAccumAVX2(tabs []uint32, codes []uint16, bins int) bool {
	n16 := len(codes) &^ 15
	if n16 > 0 && !histAccumAVX2Asm(tabs, codes[:n16], bins) {
		return false
	}
	return histAccumPureGo(tabs, codes[n16:], bins)
}

func histMergeAVX2(out, tabs []uint32) {
	b := len(out)
	n8 := b &^ 7
	if n8 > 0 {
		histMergeAVX2Asm(out[:n8], tabs, b)
	}
	for i := n8; i < b; i++ {
		out[i] += tabs[i] + tabs[b+i] + tabs[2*b+i] + tabs[3*b+i]
	}
}

func nextZeroAVX2(codes []uint16) int {
	n16 := len(codes) &^ 15
	if n16 > 0 {
		if idx := nextZeroAVX2Asm(codes[:n16]); idx >= 0 {
			return idx
		}
	}
	for i := n16; i < len(codes); i++ {
		if codes[i] == 0 {
			return i
		}
	}
	return -1
}

func sumLengthsAVX2(lengths32 []uint32, codes []uint16) (uint64, bool) {
	var bits uint64
	// Spans bound the asm core's eight uint32 lane accumulators: 1 Mi codes
	// per call times the Huffman length ceiling (code lengths are <= 32,
	// and the dispatch contract caps table entries at 255) stays far below
	// 2^32 per lane.
	const span = 1 << 20
	n8 := len(codes) &^ 7
	for lo := 0; lo < n8; lo += span {
		hi := lo + span
		if hi > n8 {
			hi = n8
		}
		s, ok := sumLengthsAVX2Asm(lengths32, codes[lo:hi])
		if !ok {
			return 0, false
		}
		bits += s
	}
	tail, ok := sumLengthsPureGo(lengths32, codes[n8:])
	if !ok {
		return 0, false
	}
	return bits + tail, true
}

// emitCodesAVX2 runs the asm core over groups of eight codes, then the
// reference from where the core stopped. The core takes a group only when
// the reference would take both its halves: every code in range, and 48
// bytes of out left, which keeps the reference's 32 after a first half
// that advances at most 16. So the reference finishes at the point, and
// with the state, it would have reached alone.
func emitCodesAVX2(enc []uint64, codes []uint16, out []byte, acc uint64, nbits uint) (int, int, uint64, uint) {
	done, written, acc, nbits := emitCodesAVX2Asm(enc, codes, out, acc, nbits)
	d, w, acc, nbits := emitCodesPureGo(enc, codes[done:], out[written:], acc, nbits)
	return done + d, written + w, acc, nbits
}

// decodeQuadAVX2 runs the whole contract in the asm core; only the
// argument checks are Go.
func decodeQuadAVX2(table []uint32, fastBits, maxLen int, in [4][]byte, out [4][]uint16, bit [4]uint, oi int) (int, [4]uint) {
	return decodeQuadAVX2Asm(table, fastBits, quadSteps(table, fastBits, maxLen, oi), in, out, bit, oi)
}

// The bitshuffle wrappers hand the asm cores whole 64-value groups, so the
// reference finishes from a boundary it accepts.

func bitshuffle16AVX2(dst []byte, vals []uint16, center uint16) {
	n64 := len(vals) &^ 63
	if n64 > 0 {
		stride := planeStride(len(vals))
		bitshuffle16AVX2Asm(dst[:16*stride], vals[:n64], stride, center)
	}
	bitshuffle16From(dst, vals, center, n64)
}

func unbitshuffle16AVX2(dst []uint16, src []byte, center uint16) {
	n64 := len(dst) &^ 63
	if n64 > 0 {
		stride := planeStride(len(dst))
		unbitshuffle16AVX2Asm(dst[:n64], src[:16*stride], stride, center)
	}
	unbitshuffle16From(dst, src, center, n64)
}
