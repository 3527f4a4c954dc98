//go:build !purego

#include "textflag.h"

// AVX2 kernel cores. Every function processes only whole vector groups
// (the Go wrappers in kernels_amd64.go own the scalar tails) and uses
// unaligned loads throughout, so callers never need aligned slices.

// Double-precision constants for the round-half-away-from-zero sequence.
DATA roundconst<>+0(SB)/8, $0x3FE0000000000000 // 0.5
DATA roundconst<>+8(SB)/8, $0x3FF0000000000000 // 1.0
GLOBL roundconst<>(SB), RODATA|NOPTR, $16

// func quantAVX2Asm(data []float32, q []int32, scale, lim float64) bool
//
// q[i] = int32(round(data[i]*scale)) with round-half-away-from-zero,
// exactly math.Round: r = copysign(trunc(|t|) + (|t|-trunc(|t|) >= 0.5), t).
// The naive trunc(t + copysign(0.5, t)) is NOT math.Round (it rounds
// 0.49999999999999994 up, because t+0.5 rounds to 1.0 in float64); the
// trunc/frac form has no such double rounding. Lanes whose rounded value
// falls outside [-lim, lim] — including NaN, for which every ordered
// compare is false — clear the ok accumulator and the function returns
// false. len(data) must be a multiple of 8.
TEXT ·quantAVX2Asm(SB), NOSPLIT, $0-65
	MOVQ data_base+0(FP), SI
	MOVQ data_len+8(FP), CX
	MOVQ q_base+24(FP), DI
	VBROADCASTSD scale+48(FP), Y8
	VBROADCASTSD lim+56(FP), Y9
	VPCMPEQD Y15, Y15, Y15             // ok accumulator: all ones
	VPSRLQ   $1, Y15, Y11              // 0x7FFF... abs mask
	VPSLLQ   $63, Y15, Y12             // 0x8000... sign mask
	VXORPD   Y12, Y9, Y14              // -lim
	VBROADCASTSD roundconst<>+0(SB), Y13 // 0.5
	VBROADCASTSD roundconst<>+8(SB), Y10 // 1.0

quantloop:
	CMPQ CX, $8
	JL   quantdone
	VMOVUPS (SI), Y0                   // 8 x f32
	VCVTPS2PD X0, Y1                   // lanes 0-3 -> f64
	VEXTRACTF128 $1, Y0, X2
	VCVTPS2PD X2, Y2                   // lanes 4-7 -> f64
	VMULPD Y8, Y1, Y1                  // t = v * scale
	VMULPD Y8, Y2, Y2

	// Round lanes 0-3.
	VANDPD   Y11, Y1, Y3               // |t|
	VROUNDPD $3, Y3, Y4                // trunc(|t|)
	VSUBPD   Y4, Y3, Y5                // frac = |t| - trunc(|t|)
	VCMPPD   $13, Y13, Y5, Y5          // frac >= 0.5 (GE_OS)
	VANDPD   Y10, Y5, Y5               // 1.0 where the half rounds away
	VADDPD   Y5, Y4, Y4
	VANDPD   Y12, Y1, Y6               // sign of t
	VORPD    Y6, Y4, Y4                // r = copysign(rounded, t)
	VCMPPD   $2, Y9, Y4, Y5            // r <= lim (LE_OS)
	VCMPPD   $13, Y14, Y4, Y6          // r >= -lim
	VANDPD   Y6, Y5, Y5
	VANDPD   Y5, Y15, Y15
	VCVTTPD2DQY Y4, X1                 // exact: r is integral and in range

	// Round lanes 4-7.
	VANDPD   Y11, Y2, Y3
	VROUNDPD $3, Y3, Y4
	VSUBPD   Y4, Y3, Y5
	VCMPPD   $13, Y13, Y5, Y5
	VANDPD   Y10, Y5, Y5
	VADDPD   Y5, Y4, Y4
	VANDPD   Y12, Y2, Y6
	VORPD    Y6, Y4, Y4
	VCMPPD   $2, Y9, Y4, Y5
	VCMPPD   $13, Y14, Y4, Y6
	VANDPD   Y6, Y5, Y5
	VANDPD   Y5, Y15, Y15
	VCVTTPD2DQY Y4, X2

	VINSERTI128 $1, X2, Y1, Y1
	VMOVDQU Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  quantloop

quantdone:
	VMOVMSKPD Y15, AX                  // 4 bits, one per f64 lane
	CMPL AX, $0xF
	SETEQ ret+64(FP)
	VZEROUPPER
	RET

// emitcodes packs a ymm of eight int32 residuals d into eight uint16
// codes at (DI): code = uint16(d+r32) when -r32 < d < r32, else 0.
// In: Y0 = d, Y8 = r32 broadcast, Y9 = -r32 broadcast. Clobbers Y0-Y5.
#define EMITCODES \
	VPCMPGTD Y9, Y0, Y4 \ // d > -r32
	VPCMPGTD Y0, Y8, Y5 \ // r32 > d
	VPAND    Y5, Y4, Y4 \
	VPADDD   Y8, Y0, Y0 \ // d + r32 (in (0, 2*r32) when in range)
	VPAND    Y4, Y0, Y0 \ // escapes -> 0
	VEXTRACTI128 $1, Y0, X1 \
	VPACKUSDW X1, X0, X0 \ // exact: masked values are in [0, 65535]
	VMOVDQU  X0, (DI)

// func diff1AVX2Asm(q []int32, codes []uint16, r32 int32)
// codes[i] = enc(q[i+1] - q[i]); len(codes) a multiple of 8,
// len(q) >= len(codes)+1.
TEXT ·diff1AVX2Asm(SB), NOSPLIT, $0-52
	MOVQ q_base+0(FP), SI
	MOVQ codes_base+24(FP), DI
	MOVQ codes_len+32(FP), CX
	MOVL r32+48(FP), AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y8                // r32
	NEGL AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y9                // -r32

diff1loop:
	CMPQ CX, $8
	JL   diff1done
	VMOVDQU 4(SI), Y0                  // q[i+1..i+8]
	VMOVDQU (SI), Y1                   // q[i..i+7]
	VPSUBD  Y1, Y0, Y0                 // d = q[i+1] - q[i]
	EMITCODES
	ADDQ $32, SI
	ADDQ $16, DI
	SUBQ $8, CX
	JMP  diff1loop

diff1done:
	VZEROUPPER
	RET

// func diff2AVX2Asm(q, up []int32, codes []uint16, r32 int32)
// codes[i] = enc(q[i+1]-q[i] - up[i+1]+up[i]); len(codes) a multiple of 8.
TEXT ·diff2AVX2Asm(SB), NOSPLIT, $0-76
	MOVQ q_base+0(FP), SI
	MOVQ up_base+24(FP), DX
	MOVQ codes_base+48(FP), DI
	MOVQ codes_len+56(FP), CX
	MOVL r32+72(FP), AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y8
	NEGL AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y9

diff2loop:
	CMPQ CX, $8
	JL   diff2done
	VMOVDQU 4(SI), Y0
	VMOVDQU (SI), Y1
	VPSUBD  Y1, Y0, Y0                 // q[i+1] - q[i]
	VMOVDQU 4(DX), Y2
	VMOVDQU (DX), Y3
	VPSUBD  Y3, Y2, Y2                 // up[i+1] - up[i]
	VPSUBD  Y2, Y0, Y0
	EMITCODES
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $16, DI
	SUBQ $8, CX
	JMP  diff2loop

diff2done:
	VZEROUPPER
	RET

// func diff3AVX2Asm(q, up, back, backUp []int32, codes []uint16, r32 int32)
// codes[i] = enc(q[i+1]-q[i] - up[i+1]+up[i] - back[i+1]+back[i]
// + backUp[i+1]-backUp[i]); len(codes) a multiple of 8.
TEXT ·diff3AVX2Asm(SB), NOSPLIT, $0-124
	MOVQ q_base+0(FP), SI
	MOVQ up_base+24(FP), DX
	MOVQ back_base+48(FP), R8
	MOVQ backUp_base+72(FP), R9
	MOVQ codes_base+96(FP), DI
	MOVQ codes_len+104(FP), CX
	MOVL r32+120(FP), AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y8
	NEGL AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y9

diff3loop:
	CMPQ CX, $8
	JL   diff3done
	VMOVDQU 4(SI), Y0
	VMOVDQU (SI), Y1
	VPSUBD  Y1, Y0, Y0                 // q[i+1] - q[i]
	VMOVDQU 4(DX), Y2
	VMOVDQU (DX), Y3
	VPSUBD  Y3, Y2, Y2                 // up[i+1] - up[i]
	VPSUBD  Y2, Y0, Y0
	VMOVDQU 4(R8), Y2
	VMOVDQU (R8), Y3
	VPSUBD  Y3, Y2, Y2                 // back[i+1] - back[i]
	VPSUBD  Y2, Y0, Y0
	VMOVDQU 4(R9), Y2
	VMOVDQU (R9), Y3
	VPSUBD  Y3, Y2, Y2                 // backUp[i+1] - backUp[i]
	VPADDD  Y2, Y0, Y0
	EMITCODES
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $16, DI
	SUBQ $8, CX
	JMP  diff3loop

diff3done:
	VZEROUPPER
	RET

// func minMaxAVX2Asm(data []float32) (mn, mx float32)
//
// Eight accumulator lanes seeded from data[0]. Operand order puts the
// fresh value in the first-source slot of VMINPS/VMAXPS, so a NaN element
// never replaces an accumulator (min/max return the second source on
// unordered compares) — the scalar loop's semantics. len(data) must be a
// non-zero multiple of 8.
TEXT ·minMaxAVX2Asm(SB), NOSPLIT, $0-32
	MOVQ data_base+0(FP), SI
	MOVQ data_len+8(FP), CX
	VBROADCASTSS (SI), Y0              // mn lanes
	VMOVAPS Y0, Y1                     // mx lanes

minmaxloop:
	CMPQ CX, $8
	JL   minmaxdone
	VMOVUPS (SI), Y2
	VMINPS  Y0, Y2, Y0                 // min(v, acc): NaN v keeps acc
	VMAXPS  Y1, Y2, Y1
	ADDQ $32, SI
	SUBQ $8, CX
	JMP  minmaxloop

minmaxdone:
	VEXTRACTF128 $1, Y0, X2
	VMINPS X0, X2, X0
	VPSHUFD $0x4E, X0, X2
	VMINPS X0, X2, X0
	VPSHUFD $0xB1, X0, X2
	VMINPS X0, X2, X0
	VMOVSS X0, mn+24(FP)
	VEXTRACTF128 $1, Y1, X2
	VMAXPS X1, X2, X1
	VPSHUFD $0x4E, X1, X2
	VMAXPS X1, X2, X1
	VPSHUFD $0xB1, X1, X2
	VMAXPS X1, X2, X1
	VMOVSS X1, mx+28(FP)
	VZEROUPPER
	RET

// func histAccumAVX2Asm(tabs []uint32, codes []uint16, bins int) bool
//
// Sixteen codes per iteration: one vector compare validates the whole
// group against bins (VPMAXUW against bins-1 — a code is in range iff the
// unsigned max leaves bins-1 unchanged), then the increments scatter into
// the four privatized sub-tables with position-mod-4 assignment, the same
// mapping as the scalar loop so the tables match bit for bit. AVX2 has no
// scatter; the increments are the irreducible scalar core of any
// vectorized histogram. len(codes) must be a multiple of 16.
TEXT ·histAccumAVX2Asm(SB), NOSPLIT, $0-57
	MOVQ tabs_base+0(FP), R8           // t0
	MOVQ codes_base+24(FP), SI
	MOVQ codes_len+32(FP), CX
	MOVQ bins+48(FP), AX
	LEAQ (R8)(AX*4), R9                // t1
	LEAQ (R9)(AX*4), R10               // t2
	LEAQ (R10)(AX*4), R11              // t3
	DECQ AX                            // bins-1 fits uint16 (bins <= 65536)
	VMOVD AX, X0
	VPBROADCASTW X0, Y7

histloop:
	CMPQ CX, $16
	JL   histok
	VMOVDQU  (SI), Y0
	VPMAXUW  Y7, Y0, Y1
	VPCMPEQW Y7, Y1, Y1                // all-ones iff code <= bins-1
	VPMOVMSKB Y1, DX
	CMPL DX, $-1
	JNE  histfail

	MOVQ 0(SI), DX                     // codes 0-3 -> t0..t3
	MOVWLZX DX, BX
	INCL (R8)(BX*4)
	SHRQ $16, DX
	MOVWLZX DX, BX
	INCL (R9)(BX*4)
	SHRQ $16, DX
	MOVWLZX DX, BX
	INCL (R10)(BX*4)
	SHRQ $16, DX
	INCL (R11)(DX*4)

	MOVQ 8(SI), DX                     // codes 4-7 -> t0..t3
	MOVWLZX DX, BX
	INCL (R8)(BX*4)
	SHRQ $16, DX
	MOVWLZX DX, BX
	INCL (R9)(BX*4)
	SHRQ $16, DX
	MOVWLZX DX, BX
	INCL (R10)(BX*4)
	SHRQ $16, DX
	INCL (R11)(DX*4)

	MOVQ 16(SI), DX                    // codes 8-11 -> t0..t3
	MOVWLZX DX, BX
	INCL (R8)(BX*4)
	SHRQ $16, DX
	MOVWLZX DX, BX
	INCL (R9)(BX*4)
	SHRQ $16, DX
	MOVWLZX DX, BX
	INCL (R10)(BX*4)
	SHRQ $16, DX
	INCL (R11)(DX*4)

	MOVQ 24(SI), DX                    // codes 12-15 -> t0..t3
	MOVWLZX DX, BX
	INCL (R8)(BX*4)
	SHRQ $16, DX
	MOVWLZX DX, BX
	INCL (R9)(BX*4)
	SHRQ $16, DX
	MOVWLZX DX, BX
	INCL (R10)(BX*4)
	SHRQ $16, DX
	INCL (R11)(DX*4)

	ADDQ $32, SI
	SUBQ $16, CX
	JMP  histloop

histok:
	MOVB $1, ret+56(FP)
	VZEROUPPER
	RET

histfail:
	MOVB $0, ret+56(FP)
	VZEROUPPER
	RET

// func histMergeAVX2Asm(out, tabs []uint32, stride int)
// out[i] += tabs[i] + tabs[stride+i] + tabs[2*stride+i] + tabs[3*stride+i],
// eight bins per iteration. len(out) must be a multiple of 8.
TEXT ·histMergeAVX2Asm(SB), NOSPLIT, $0-56
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ tabs_base+24(FP), SI
	MOVQ stride+48(FP), AX
	LEAQ (SI)(AX*4), R9
	LEAQ (R9)(AX*4), R10
	LEAQ (R10)(AX*4), R11

mergeloop:
	CMPQ CX, $8
	JL   mergedone
	VMOVDQU (SI), Y0
	VPADDD  (R9), Y0, Y0
	VPADDD  (R10), Y0, Y0
	VPADDD  (R11), Y0, Y0
	VPADDD  (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  mergeloop

mergedone:
	VZEROUPPER
	RET

// func nextZeroAVX2Asm(codes []uint16) int
// Index of the first zero code in the leading multiple-of-16 prefix, else
// -1. One compare+movemask tests sixteen codes; BSF pinpoints the word.
TEXT ·nextZeroAVX2Asm(SB), NOSPLIT, $0-32
	MOVQ codes_base+0(FP), SI
	MOVQ codes_len+8(FP), CX
	XORQ R8, R8                        // running base index
	VPXOR Y1, Y1, Y1

zeroloop:
	CMPQ CX, $16
	JL   zeronone
	VMOVDQU  (SI), Y0
	VPCMPEQW Y1, Y0, Y0
	VPMOVMSKB Y0, AX
	TESTL AX, AX
	JNZ  zerofound
	ADDQ $32, SI
	ADDQ $16, R8
	SUBQ $16, CX
	JMP  zeroloop

zerofound:
	BSFL AX, AX                        // first matching byte
	SHRL $1, AX                        // -> word lane
	ADDQ AX, R8
	MOVQ R8, ret+24(FP)
	VZEROUPPER
	RET

zeronone:
	MOVQ $-1, ret+24(FP)
	VZEROUPPER
	RET

// func sumLengthsAVX2Asm(lengths32 []uint32, codes []uint16) (sum uint64, ok bool)
//
// Eight codes per iteration: widen, range-check against len(lengths32)
// BEFORE the table gather (an out-of-range lane must never issue a load),
// gather the lengths with VPGATHERDD, reject zero lengths, accumulate in
// eight uint32 lanes. The wrapper caps a call at 1Mi codes so the lanes
// cannot wrap. len(codes) must be a multiple of 8.
TEXT ·sumLengthsAVX2Asm(SB), NOSPLIT, $0-57
	MOVQ lengths32_base+0(FP), R8
	MOVQ lengths32_len+8(FP), R9
	MOVQ codes_base+24(FP), SI
	MOVQ codes_len+32(FP), CX
	MOVQ $65536, AX                    // clamp: uint16 codes index at most 65535
	CMPQ R9, AX
	CMOVQLT R9, AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y7                // table length, signed-safe
	VPXOR Y6, Y6, Y6                   // zero
	VPXOR Y5, Y5, Y5                   // lane sums

sumloop:
	CMPQ CX, $8
	JL   sumdone
	VPMOVZXWD (SI), Y0                 // 8 codes -> 8 x u32 indexes
	VPCMPGTD  Y0, Y7, Y1               // len > idx, per lane
	VPMOVMSKB Y1, AX
	CMPL AX, $-1
	JNE  sumfail
	VPCMPEQD Y2, Y2, Y2                // gather mask: all lanes
	VPGATHERDD Y2, (R8)(Y0*4), Y3
	VPCMPEQD Y6, Y3, Y4                // zero-length symbol?
	VPMOVMSKB Y4, AX
	TESTL AX, AX
	JNZ  sumfail
	VPADDD Y3, Y5, Y5
	ADDQ $16, SI
	SUBQ $8, CX
	JMP  sumloop

sumdone:
	VEXTRACTI128 $1, Y5, X1
	VPADDD  X1, X5, X5
	VPSHUFD $0x4E, X5, X1
	VPADDD  X1, X5, X5
	VPSHUFD $0xB1, X5, X1
	VPADDD  X1, X5, X5
	VMOVD   X5, AX
	MOVQ AX, sum+48(FP)
	MOVB $1, ok+56(FP)
	VZEROUPPER
	RET

sumfail:
	MOVQ $0, sum+48(FP)
	MOVB $0, ok+56(FP)
	VZEROUPPER
	RET

// func lorenzoRowAVX2Asm(codes []uint16, vals []int32, r32 int32, scale float64, acc int32, above, behind []int32, out []float32) (next int32, done, used int)
//
// LorenzoRow over whole groups of eight codes. Per group: widen the codes
// and subtract the radius; in a group holding an escape (code 0), blend
// the next outlier values into the escape lanes, each lane's value picked
// by VPERMD with the count of escapes before it (a prefix sum like the
// x-scan's) — or stop before the group when fewer than eight values are
// left, so a group is never half-consumed. Then x-scan the residuals
// (in-lane log-step prefix, the low lane's total carried into the high
// lane, the running carry from the groups before), add the row above and
// the plane behind (storing each back) when present, and scale through
// float64: int32→f64 is exact and the multiply and the f64→f32 narrowing
// each round once under the default MXCSR, exactly as the scalar
// float32(float64(v)*scale). done is a multiple of 8. len(codes) a
// multiple of 8; above and behind are empty or len(codes) long, out
// len(codes) long.
TEXT ·lorenzoRowAVX2Asm(SB), NOSPLIT, $0-168
	MOVQ codes_base+0(FP), SI
	MOVQ vals_base+24(FP), R9
	MOVQ vals_len+32(FP), R13
	MOVQ above_base+72(FP), DX
	MOVQ above_len+80(FP), AX
	TESTQ AX, AX
	CMOVQEQ AX, DX                     // absent row above: DX = 0
	MOVQ behind_base+96(FP), R8
	MOVQ behind_len+104(FP), AX
	TESTQ AX, AX
	CMOVQEQ AX, R8                     // absent plane behind: R8 = 0
	MOVQ out_base+120(FP), DI
	MOVL r32+48(FP), AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y8                // r32
	VBROADCASTSD scale+56(FP), Y9
	MOVL acc+64(FP), AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y10               // running x-sum, every lane
	MOVL $7, AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y12               // VPERMD index: lane 7
	VPXOR Y11, Y11, Y11                // zero
	XORQ BX, BX                        // codes done
	XORQ R12, R12                      // vals used

rowloop:
	CMPQ BX, codes_len+8(FP)
	JGE  rowdone
	VPMOVZXWD (SI)(BX*2), Y0           // 8 codes -> int32
	VPCMPEQD Y11, Y0, Y1               // escape lanes
	VPSUBD   Y8, Y0, Y0                // residuals
	VPTEST   Y1, Y1
	JNZ      rowpatch

rowscan:
	VPSLLDQ  $4, Y0, Y1                // in-lane prefix, step 1
	VPADDD   Y1, Y0, Y0
	VPSLLDQ  $8, Y0, Y1                // in-lane prefix, step 2
	VPADDD   Y1, Y0, Y0
	VPSHUFD  $0xFF, Y0, Y1             // each lane's total, broadcast in-lane
	VPERM2I128 $0x08, Y1, Y1, Y1       // low lane's total into the high lane
	VPADDD   Y1, Y0, Y0
	VPADDD   Y10, Y0, Y0               // + carry from the groups before
	VPERMD   Y0, Y12, Y10              // new carry: lane 7
	TESTQ    DX, DX
	JZ       rownoabove
	VPADDD   (DX)(BX*4), Y0, Y0        // + row above
	VMOVDQU  Y0, (DX)(BX*4)

rownoabove:
	TESTQ    R8, R8
	JZ       rownobehind
	VPADDD   (R8)(BX*4), Y0, Y0        // + plane behind
	VMOVDQU  Y0, (R8)(BX*4)

rownobehind:
	VCVTDQ2PD X0, Y2                   // lanes 0-3 -> f64
	VEXTRACTI128 $1, Y0, X3
	VCVTDQ2PD X3, Y3                   // lanes 4-7 -> f64
	VMULPD   Y9, Y2, Y2
	VMULPD   Y9, Y3, Y3
	VCVTPD2PSY Y2, X2
	VCVTPD2PSY Y3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VMOVUPS  Y2, (DI)(BX*4)
	ADDQ     $8, BX
	JMP      rowloop

rowpatch:
	MOVQ R13, AX
	SUBQ R12, AX
	CMPQ AX, $8
	JLT  rowdone                       // too few values left: the caller takes this group
	VMOVDQU (R9)(R12*4), Y4            // the next eight outlier values
	VPSRLD   $31, Y1, Y5               // 1 in each escape lane
	VPSLLDQ  $4, Y5, Y6                // escapes up to each lane: the x-scan's prefix
	VPADDD   Y6, Y5, Y5
	VPSLLDQ  $8, Y5, Y6
	VPADDD   Y6, Y5, Y5
	VPSHUFD  $0xFF, Y5, Y6
	VPERM2I128 $0x08, Y6, Y6, Y6
	VPADDD   Y6, Y5, Y5
	VPADDD   Y1, Y5, Y6                // escape lanes: escapes before them
	VPERMD   Y4, Y6, Y7                // each escape lane's outlier value
	VPBLENDVB Y1, Y7, Y0, Y0
	VEXTRACTI128 $1, Y5, X6
	VPEXTRD  $3, X6, AX                // escapes in the group
	ADDQ     AX, R12
	JMP      rowscan

rowdone:
	VMOVD X10, AX
	MOVL  AX, next+144(FP)
	MOVQ  BX, done+152(FP)
	MOVQ  R12, used+160(FP)
	VZEROUPPER
	RET

// Qword mask of an enc entry's length byte.
DATA emitlenmask<>+0(SB)/8, $0xff
GLOBL emitlenmask<>(SB), RODATA|NOPTR, $8

// func emitCodesAVX2Asm(enc []uint64, codes []uint16, out []byte, acc uint64, nbits uint) (done, written int, accOut uint64, nbitsOut uint)
//
// EmitCodes over groups of eight codes. Per group: widen the codes and
// range-check them against len(enc) BEFORE any entry load (an out-of-range
// lane must never load; the group is left to the caller), load the
// revCode<<8|len entries of the even codes into one register and of the
// odd codes into another, and merge them in three log steps, a prefix sum
// of the lengths carried along: each odd code shifted (VPSLLVQ) past its
// even neighbour's length and ORed in, then the pairs inside each 128-bit
// half, then the two halves. The entries are loaded with VMOVQ/VPINSRQ
// rather than VPGATHERDQ: on a 2-vCPU AVX-512 Xeon two gathers per group
// made the whole Huffman encode about 20 % slower. A group of at most 56
// bits is one shift into acc and one 8-byte store; a wider one goes code
// by code. It runs while 8 codes and 48 bytes of out are left: a group
// stores into at most its first 36 bytes.
TEXT ·emitCodesAVX2Asm(SB), NOSPLIT, $0-120
	MOVQ enc_base+0(FP), R8
	MOVQ enc_len+8(FP), R9
	MOVQ codes_base+24(FP), SI
	MOVQ codes_len+32(FP), BX
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), DX
	ADDQ DI, DX                        // out end
	MOVQ acc+72(FP), AX
	MOVQ nbits+80(FP), R10
	MOVQ $65536, R11                   // clamp: uint16 codes index at most 65535
	CMPQ R9, R11
	CMOVQLT R9, R11
	VMOVD R11, X0
	VPBROADCASTD X0, Y15               // table length, signed-safe
	VPBROADCASTQ emitlenmask<>(SB), Y14

emitloop:
	CMPQ BX, $8
	JLT  emitdone
	MOVQ DX, R11
	SUBQ DI, R11
	CMPQ R11, $48
	JLT  emitdone
	VPMOVZXWD (SI), Y0                 // 8 codes -> 8 x u32 indexes
	VPCMPGTD  Y0, Y15, Y1              // len > idx, per lane
	VPMOVMSKB Y1, R11
	CMPL R11, $-1
	JNE  emitdone
	MOVWQZX 0(SI), R11
	MOVWQZX 4(SI), R12
	MOVWQZX 8(SI), R13
	MOVWQZX 12(SI), R14
	VMOVQ   (R8)(R11*8), X3
	VPINSRQ $1, (R8)(R12*8), X3, X3
	VMOVQ   (R8)(R13*8), X5
	VPINSRQ $1, (R8)(R14*8), X5, X5
	VINSERTI128 $1, X5, Y3, Y3         // even entries 0 2 4 6
	MOVWQZX 2(SI), R11
	MOVWQZX 6(SI), R12
	MOVWQZX 10(SI), R13
	MOVWQZX 14(SI), R14
	VMOVQ   (R8)(R11*8), X4
	VPINSRQ $1, (R8)(R12*8), X4, X4
	VMOVQ   (R8)(R13*8), X5
	VPINSRQ $1, (R8)(R14*8), X5, X5
	VINSERTI128 $1, X5, Y4, Y4         // odd entries 1 3 5 7

	// Pairs: each odd code shifted past its even neighbour.
	VPAND   Y14, Y3, Y5                // l0 l2 l4 l6
	VPAND   Y14, Y4, Y6                // l1 l3 l5 l7
	VPSRLQ  $8, Y3, Y3                 // c0 c2 c4 c6
	VPSRLQ  $8, Y4, Y4                 // c1 c3 c5 c7
	VPSLLVQ Y5, Y4, Y4
	VPOR    Y4, Y3, Y3                 // w01 w23 w45 w67
	VPADDQ  Y6, Y5, Y5                 // n01 n23 n45 n67

	// Quads inside each 128-bit half, then the two halves.
	VPSLLDQ $8, Y5, Y6                 // 0 n01 0 n45
	VPSLLVQ Y6, Y3, Y4
	VPSRLDQ $8, Y4, Y4
	VPOR    Y4, Y3, Y3                 // w0123 . w4567 .
	VPSRLDQ $8, Y5, Y6
	VPADDQ  Y6, Y5, Y5                 // n0123 . n4567 .
	VEXTRACTI128 $1, Y3, X4
	VEXTRACTI128 $1, Y5, X7
	VPSLLVQ X5, X4, X4
	VPOR    X4, X3, X3                 // w
	VPADDQ  X7, X5, X5                 // n
	VMOVQ X3, R11
	VMOVQ X5, R12
	CMPQ R12, $56
	JHI  emitslow

	SHLXQ R10, R11, R11
	ORQ   R11, AX                      // acc |= w << nbits
	ADDQ  R12, R10
	MOVQ  AX, (DI)
	MOVQ  R10, R13
	ANDQ  $-8, R13                     // completed bits
	SHRXQ R13, AX, AX
	SHRQ  $3, R13
	ADDQ  R13, DI
	ANDQ  $7, R10
	ADDQ  $16, SI
	SUBQ  $8, BX
	JMP   emitloop

emitslow:
	MOVQ $8, R12
emitcode:
	MOVWQZX (SI), R11
	MOVQ  (R8)(R11*8), R11
	MOVBQZX R11, R13                   // len
	SHRQ  $8, R11
	SHLXQ R10, R11, R11
	ORQ   R11, AX
	ADDQ  R13, R10
	MOVQ  AX, (DI)
	MOVQ  R10, R13
	ANDQ  $-8, R13
	SHRXQ R13, AX, AX
	SHRQ  $3, R13
	ADDQ  R13, DI
	ANDQ  $7, R10
	ADDQ  $2, SI
	DECQ  R12
	JNZ   emitcode
	SUBQ  $8, BX
	JMP   emitloop

emitdone:
	SUBQ codes_base+24(FP), SI
	SHRQ $1, SI
	MOVQ SI, done+88(FP)
	SUBQ out_base+48(FP), DI
	MOVQ DI, written+96(FP)
	MOVQ AX, accOut+104(FP)
	MOVQ R10, nbitsOut+112(FP)
	VZEROUPPER
	RET
