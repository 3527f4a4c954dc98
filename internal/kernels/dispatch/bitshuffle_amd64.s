//go:build !purego

#include "textflag.h"

// AVX2 cores of the 16-bit bitshuffle kernels. Both work on whole groups of
// 32 values — four bytes of every plane — and leave tails to the Go
// wrappers. The recentring runs in one loop for both modes: with a non-zero
// center the shift count is 1 and the sign mask all ones, with center 0 they
// are 0 and the remap is the identity.

// recentersetup loads the recentring constants from center (zero-extended in
// AX): Y15 = center in every word, X14 = shift count (center != 0),
// BX = that count. Clobbers AX, BX.
#define RECENTERSETUP \
	VMOVD AX, X15 \
	VPBROADCASTW X15, Y15 \
	XORL BX, BX \
	TESTL AX, AX \
	SETNE BL \
	VMOVD BX, X14

// shufplane stores bit 7 of the 32 bytes of Y at addr as one plane's four
// bytes, then brings the next lower bit up.
#define SHUFPLANE(Y, addr) \
	VPMOVMSKB Y, AX \
	MOVL AX, addr \
	VPADDB Y, Y, Y

// func bitshuffle16AVX2Asm(dst []byte, vals []uint16, stride int, center uint16)
//
// Split the words of 32 values into a vector of low bytes and one of high
// bytes, in value order; VPMOVMSKB then reads one bit-plane of 32 values off
// the byte tops and VPADDB shifts the next one up. Plane p goes to
// dst[p*stride+4g] for group g. len(vals) must be a multiple of 32 and dst
// hold 16 planes of stride >= len(vals)/8 bytes.
TEXT ·bitshuffle16AVX2Asm(SB), NOSPLIT, $0-58
	MOVQ dst_base+0(FP), DI
	MOVQ vals_base+24(FP), SI
	MOVQ vals_len+32(FP), CX
	MOVQ stride+48(FP), DX
	MOVWLZX center+56(FP), AX
	RECENTERSETUP
	NEGL BX
	VMOVD BX, X13
	VPBROADCASTW X13, Y13              // sign mask: 0xFFFF per word, or 0
	VPCMPEQW Y12, Y12, Y12
	VPSRLW   $8, Y12, Y12              // 0x00FF per word
	LEAQ (DX)(DX*2), R11               // 3*stride
	LEAQ (DX)(DX*4), R12               // 5*stride
	LEAQ (R11)(DX*4), R13              // 7*stride

shuf16loop:
	CMPQ CX, $32
	JL   shuf16done
	VMOVDQU (SI), Y0                   // values 0-15
	VMOVDQU 32(SI), Y1                 // values 16-31
	VPSUBW  Y15, Y0, Y0                // d = v - center
	VPSUBW  Y15, Y1, Y1
	VPSRAW  $15, Y0, Y2
	VPSRAW  $15, Y1, Y3
	VPAND   Y13, Y2, Y2                // d>>15 where recentring
	VPAND   Y13, Y3, Y3
	VPSLLW  X14, Y0, Y0
	VPSLLW  X14, Y1, Y1
	VPXOR   Y2, Y0, Y0                 // (d<<1) ^ (d>>15)
	VPXOR   Y3, Y1, Y1

	VPAND   Y12, Y0, Y4
	VPAND   Y12, Y1, Y5
	VPACKUSWB Y5, Y4, Y4               // low bytes, 128-bit lanes interleaved
	VPERMQ  $0xD8, Y4, Y4              // low bytes of values 0-31 in order
	VPSRLW  $8, Y0, Y6
	VPSRLW  $8, Y1, Y7
	VPACKUSWB Y7, Y6, Y6
	VPERMQ  $0xD8, Y6, Y6              // high bytes in order

	LEAQ (DI)(DX*8), R9                // planes 8-15
	SHUFPLANE(Y4, (DI)(R13*1))         // plane 7
	SHUFPLANE(Y6, (R9)(R13*1))         // plane 15
	SHUFPLANE(Y4, (DI)(R11*2))
	SHUFPLANE(Y6, (R9)(R11*2))
	SHUFPLANE(Y4, (DI)(R12*1))
	SHUFPLANE(Y6, (R9)(R12*1))
	SHUFPLANE(Y4, (DI)(DX*4))
	SHUFPLANE(Y6, (R9)(DX*4))
	SHUFPLANE(Y4, (DI)(R11*1))
	SHUFPLANE(Y6, (R9)(R11*1))
	SHUFPLANE(Y4, (DI)(DX*2))
	SHUFPLANE(Y6, (R9)(DX*2))
	SHUFPLANE(Y4, (DI)(DX*1))
	SHUFPLANE(Y6, (R9)(DX*1))
	SHUFPLANE(Y4, (DI))                // plane 0
	SHUFPLANE(Y6, (R9))                // plane 8

	ADDQ $64, SI
	ADDQ $4, DI
	SUBQ $32, CX
	JMP  shuf16loop

shuf16done:
	VZEROUPPER
	RET

// Byte k of every dword of a broadcast plane word serves values 8k..8k+7:
// the shuffle control spreads the four bytes over the 32 lanes, the bit
// pattern then picks each lane's own bit.
DATA unshufspread<>+0(SB)/8, $0x0000000000000000
DATA unshufspread<>+8(SB)/8, $0x0101010101010101
DATA unshufspread<>+16(SB)/8, $0x0202020202020202
DATA unshufspread<>+24(SB)/8, $0x0303030303030303
GLOBL unshufspread<>(SB), RODATA|NOPTR, $32

DATA unshufbit<>+0(SB)/8, $0x8040201008040201
DATA unshufbit<>+8(SB)/8, $0x8040201008040201
DATA unshufbit<>+16(SB)/8, $0x8040201008040201
DATA unshufbit<>+24(SB)/8, $0x8040201008040201
GLOBL unshufbit<>(SB), RODATA|NOPTR, $32

// unshufplane shifts the byte accumulator ACC left and sets each byte's low
// bit from the plane word at addr: broadcast the word, spread its bytes,
// test every lane's bit (the compare yields -1, so subtracting adds it).
#define UNSHUFPLANE(addr, ACC, T) \
	VPBROADCASTD addr, T \
	VPSHUFB  Y10, T, T \
	VPAND    Y11, T, T \
	VPCMPEQB Y11, T, T \
	VPADDB   ACC, ACC, ACC \
	VPSUBB   T, ACC, ACC

// func unbitshuffle16AVX2Asm(dst []uint16, src []byte, stride int, center uint16)
//
// Broadcast-and-test inverse: planes 7..0 build the low byte of 32 values,
// planes 15..8 the high byte; the two are interleaved back to words and
// un-recentred. len(dst) must be a multiple of 32 and src hold 16 planes of
// stride >= len(dst)/8 bytes.
TEXT ·unbitshuffle16AVX2Asm(SB), NOSPLIT, $0-58
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ stride+48(FP), DX
	MOVWLZX center+56(FP), AX
	RECENTERSETUP
	VMOVD BX, X13
	VPBROADCASTW X13, Y13              // 1 per word where recentring, or 0
	VPXOR   Y12, Y12, Y12
	VMOVDQU unshufspread<>(SB), Y10
	VMOVDQU unshufbit<>(SB), Y11
	LEAQ (DX)(DX*2), R11               // 3*stride
	LEAQ (DX)(DX*4), R12               // 5*stride
	LEAQ (R11)(DX*4), R13              // 7*stride

unshuf16loop:
	CMPQ CX, $32
	JL   unshuf16done
	LEAQ (SI)(DX*8), R9                // planes 8-15
	VPXOR Y0, Y0, Y0                   // low bytes
	VPXOR Y1, Y1, Y1                   // high bytes
	UNSHUFPLANE((SI)(R13*1), Y0, Y2)   // plane 7
	UNSHUFPLANE((R9)(R13*1), Y1, Y3)   // plane 15
	UNSHUFPLANE((SI)(R11*2), Y0, Y2)
	UNSHUFPLANE((R9)(R11*2), Y1, Y3)
	UNSHUFPLANE((SI)(R12*1), Y0, Y2)
	UNSHUFPLANE((R9)(R12*1), Y1, Y3)
	UNSHUFPLANE((SI)(DX*4), Y0, Y2)
	UNSHUFPLANE((R9)(DX*4), Y1, Y3)
	UNSHUFPLANE((SI)(R11*1), Y0, Y2)
	UNSHUFPLANE((R9)(R11*1), Y1, Y3)
	UNSHUFPLANE((SI)(DX*2), Y0, Y2)
	UNSHUFPLANE((R9)(DX*2), Y1, Y3)
	UNSHUFPLANE((SI)(DX*1), Y0, Y2)
	UNSHUFPLANE((R9)(DX*1), Y1, Y3)
	UNSHUFPLANE((SI), Y0, Y2)          // plane 0
	UNSHUFPLANE((R9), Y1, Y3)          // plane 8

	VPUNPCKLBW Y1, Y0, Y4              // values 0-7 | 16-23
	VPUNPCKHBW Y1, Y0, Y5              // values 8-15 | 24-31
	VPERM2I128 $0x20, Y5, Y4, Y6       // values 0-15
	VPERM2I128 $0x31, Y5, Y4, Y7       // values 16-31

	VPAND   Y13, Y6, Y8
	VPAND   Y13, Y7, Y9
	VPSUBW  Y8, Y12, Y8                // -(u&1) where recentring
	VPSUBW  Y9, Y12, Y9
	VPSRLW  X14, Y6, Y6
	VPSRLW  X14, Y7, Y7
	VPXOR   Y8, Y6, Y6                 // (u>>1) ^ -(u&1)
	VPXOR   Y9, Y7, Y7
	VPADDW  Y15, Y6, Y6
	VPADDW  Y15, Y7, Y7
	VMOVDQU Y6, (DI)
	VMOVDQU Y7, 32(DI)

	ADDQ $4, SI
	ADDQ $64, DI
	SUBQ $32, CX
	JMP  unshuf16loop

unshuf16done:
	VZEROUPPER
	RET
