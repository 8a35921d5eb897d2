#include "textflag.h"

// AVX2 bodies of the three GEMMs (see gemm_amd64.go for the contracts and
// DESIGN.md §12 "Vector bodies" for the argument). All are the same 4 × 4
// register tile: row r of the tile broadcasts one scalar per reduction step,
// the four lanes are four consecutive destination elements, and
//
//	s[r] += broadcast(x[r][kk]) * v[kk][0..3]
//
// is one VMULPD and one VADDPD per row — never a fused multiply-add: the Go
// compiler does not fuse on amd64, so the unfused pair is what the pure-Go
// bodies (and every golden file) compute. A lane is a destination element,
// never a slice of one reduction, so each element sees exactly the additions
// of the scalar loop, in its order.

// TILESTEPS runs the reduction steps BX..CX-1 of one tile:
// R8..R11 are the four broadcast rows (indexed by BX), SI walks the lane rows
// with stride DX bytes, Y4..Y7 are the four accumulators.
#define TILESTEPS \
steps: \
	VMOVUPD      (SI), Y8; \
	VBROADCASTSD (R8)(BX*8), Y9; \
	VBROADCASTSD (R9)(BX*8), Y10; \
	VBROADCASTSD (R10)(BX*8), Y11; \
	VBROADCASTSD (R11)(BX*8), Y12; \
	VMULPD       Y8, Y9, Y9; \
	VMULPD       Y8, Y10, Y10; \
	VMULPD       Y8, Y11, Y11; \
	VMULPD       Y8, Y12, Y12; \
	VADDPD       Y9, Y4, Y4; \
	VADDPD       Y10, Y5, Y5; \
	VADDPD       Y11, Y6, Y6; \
	VADDPD       Y12, Y7, Y7; \
	ADDQ         DX, SI; \
	INCQ         BX; \
	CMPQ         BX, CX; \
	JLT          steps

// TRANSPOSE4 writes the transpose of the 4 × 4 block in rows a, b, c, d to
// rows p, q, r, s (t0..t3 are clobbered; no output may be an input).
#define TRANSPOSE4(a, b, c, d, p, q, r, s, t0, t1, t2, t3) \
	VUNPCKLPD  b, a, t0; \
	VUNPCKHPD  b, a, t1; \
	VUNPCKLPD  d, c, t2; \
	VUNPCKHPD  d, c, t3; \
	VPERM2F128 $0x20, t2, t0, p; \
	VPERM2F128 $0x20, t3, t1, q; \
	VPERM2F128 $0x31, t2, t0, r; \
	VPERM2F128 $0x31, t3, t1, s

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemmBiasAVX2(dst, a, b, bias *float64, m, n, k, kChunk int)
//
// dst = A·B + bias·1ᵀ for m % 4 == 0 rows, n >= 4 columns, k >= 1. Tile rows
// are four rows of A, lanes four columns of B and dst. The last column tile
// is moved left to end at n: the columns it shares with its neighbour are
// computed twice, to the same bits.
TEXT ·gemmBiasAVX2(SB), NOSPLIT, $8-64
	MOVQ dst+0(FP), R12
	MOVQ a+8(FP), R8
	MOVQ bias+24(FP), DI
	MOVQ n+40(FP), DX
	SHLQ $3, DX                  // row stride of b and dst, bytes
	MOVQ m+32(FP), AX
	MOVQ AX, rows-8(SP)

rowblock:
	MOVQ k+48(FP), R13
	SHLQ $3, R13
	LEAQ (R8)(R13*1), R9
	LEAQ (R9)(R13*1), R10
	LEAQ (R10)(R13*1), R11
	XORQ AX, AX                  // column offset, bytes

coltile:
	LEAQ 32(AX), R13
	CMPQ R13, DX
	JLE  tile
	LEAQ -32(DX), AX

tile:
	MOVQ         b+16(FP), SI
	ADDQ         AX, SI
	XORQ         BX, BX
	VBROADCASTSD 0(DI), Y0
	VBROADCASTSD 8(DI), Y1
	VBROADCASTSD 16(DI), Y2
	VBROADCASTSD 24(DI), Y3
	MOVQ         kChunk+56(FP), R13
	TESTQ        R13, R13
	JNZ          chunk

	// Flat reduction: the accumulators start from the bias and take every
	// product directly.
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y2, Y6
	VMOVAPD Y3, Y7
	MOVQ    k+48(FP), CX
	JMP     reduce

chunk:
	// Chunked reduction: each chunk sums into accumulators that start at
	// +0 and is then added to the running total.
	LEAQ   (BX)(R13*1), CX
	CMPQ   CX, k+48(FP)
	JLE    chunkzero
	MOVQ   k+48(FP), CX
chunkzero:
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

reduce:
	TILESTEPS
	TESTQ  R13, R13
	JZ     flatdone
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	CMPQ   BX, k+48(FP)
	JLT    chunk
	JMP    store

flatdone:
	VMOVAPD Y4, Y0
	VMOVAPD Y5, Y1
	VMOVAPD Y6, Y2
	VMOVAPD Y7, Y3

store:
	LEAQ    (R12)(AX*1), R13
	VMOVUPD Y0, (R13)
	ADDQ    DX, R13
	VMOVUPD Y1, (R13)
	ADDQ    DX, R13
	VMOVUPD Y2, (R13)
	ADDQ    DX, R13
	VMOVUPD Y3, (R13)

	ADDQ $32, AX
	CMPQ AX, DX
	JLT  coltile

	MOVQ k+48(FP), R13
	LEAQ (R11)(R13*8), R8
	ADDQ $32, DI
	LEAQ (R12)(DX*4), R12
	SUBQ $4, rows-8(SP)
	JG   rowblock

	VZEROUPPER
	RET

// lanemask<> + 8·(4 - c) is the VMASKMOVPD mask of the first c lanes.
DATA lanemask<>+0(SB)/8, $0xffffffffffffffff
DATA lanemask<>+8(SB)/8, $0xffffffffffffffff
DATA lanemask<>+16(SB)/8, $0xffffffffffffffff
DATA lanemask<>+24(SB)/8, $0xffffffffffffffff
DATA lanemask<>+32(SB)/8, $0
DATA lanemask<>+40(SB)/8, $0
DATA lanemask<>+48(SB)/8, $0
DATA lanemask<>+56(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $64

// func gemmAddTransBAVX2(dst *float64, n int, b *float64, k int, at *float64, kp int)
//
// Four rows of dst (row stride n) += Aᵀ-panel · Bᵀ over kp reduction steps:
// at is the staged panel, at[kk*4 + l] = A[row l, kk]; b points at the
// panel's first column in row 0 of B (n rows, row stride k). Tile rows are
// four rows of B, lanes the four rows of dst, so a tile is read and written
// through a 4 × 4 transpose. The last tile of an n % 4 != 0 matrix repeats
// its last row of B in the spare tile rows and masks them off dst.
TEXT ·gemmAddTransBAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), AX             // columns of dst left
	MOVQ AX, R12
	SHLQ $3, R12                 // row stride of dst, bytes
	MOVQ b+16(FP), R8
	MOVQ k+24(FP), R13
	SHLQ $3, R13                 // row stride of b, bytes
	MOVQ $32, DX

tile:
	MOVQ    $4, CX
	CMPQ    AX, CX
	CMOVQLT AX, CX               // columns in this tile
	MOVQ    R8, R9
	CMPQ    CX, $2
	JLT     row2
	ADDQ    R13, R9
row2:
	MOVQ    R9, R10
	CMPQ    CX, $3
	JLT     row3
	ADDQ    R13, R10
row3:
	MOVQ    R10, R11
	CMPQ    CX, $4
	JLT     row4
	ADDQ    R13, R11
row4:
	NEGQ    CX
	ADDQ    $4, CX
	LEAQ    lanemask<>(SB), BX
	VMOVDQU (BX)(CX*8), Y13

	VMASKMOVPD (DI), Y13, Y0
	LEAQ       (DI)(R12*1), BX
	VMASKMOVPD (BX), Y13, Y1
	ADDQ       R12, BX
	VMASKMOVPD (BX), Y13, Y2
	ADDQ       R12, BX
	VMASKMOVPD (BX), Y13, Y3
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)

	MOVQ at+32(FP), SI
	XORQ BX, BX
	MOVQ kp+40(FP), CX
	TILESTEPS

	TRANSPOSE4(Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	VMASKMOVPD Y0, Y13, (DI)
	LEAQ       (DI)(R12*1), BX
	VMASKMOVPD Y1, Y13, (BX)
	ADDQ       R12, BX
	VMASKMOVPD Y2, Y13, (BX)
	ADDQ       R12, BX
	VMASKMOVPD Y3, Y13, (BX)

	LEAQ (R11)(R13*1), R8
	ADDQ $32, DI
	SUBQ $4, AX
	JG   tile

	VZEROUPPER
	RET


// func gemmAddAVX2(dst, a, b *float64, m, n, k int)
//
// dst += A·B over the whole 4-column tiles of m % 4 == 0 rows, k >= 1. Tile
// rows are four rows of A, lanes four columns of B and dst, as in
// gemmBiasAVX2, but the accumulators are loaded from dst and stored back: a
// tile is visited once, and the n % 4 columns right of the last one are not
// touched.
TEXT ·gemmAddAVX2(SB), NOSPLIT, $8-48
	MOVQ dst+0(FP), R12
	MOVQ a+8(FP), R8
	MOVQ n+32(FP), DX
	MOVQ DX, DI
	ANDQ $-4, DI
	SHLQ $3, DI                  // width of the whole tiles of a row, bytes
	SHLQ $3, DX                  // row stride of b and dst, bytes
	MOVQ k+40(FP), CX
	MOVQ m+24(FP), AX
	MOVQ AX, rows-8(SP)

rowblock:
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	LEAQ (R10)(CX*8), R11
	XORQ AX, AX                  // column offset, bytes

tile:
	LEAQ    (R12)(AX*1), R13
	VMOVUPD (R13), Y4
	ADDQ    DX, R13
	VMOVUPD (R13), Y5
	ADDQ    DX, R13
	VMOVUPD (R13), Y6
	ADDQ    DX, R13
	VMOVUPD (R13), Y7

	MOVQ b+16(FP), SI
	ADDQ AX, SI
	XORQ BX, BX
	TILESTEPS

	VMOVUPD Y7, (R13)
	SUBQ    DX, R13
	VMOVUPD Y6, (R13)
	SUBQ    DX, R13
	VMOVUPD Y5, (R13)
	SUBQ    DX, R13
	VMOVUPD Y4, (R13)

	ADDQ $32, AX
	CMPQ AX, DI
	JLT  tile

	LEAQ (R11)(CX*8), R8
	LEAQ (R12)(DX*4), R12
	SUBQ $4, rows-8(SP)
	JG   rowblock

	VZEROUPPER
	RET
