#include "textflag.h"

// AVX2 bodies of the CNN's element-wise passes (see kernel_amd64.go for the
// contracts and DESIGN.md §12 "The CNN's element-wise passes" for the
// argument). A lane is one element or one output cell and goes through the
// operations the Go loop applies to it, in its order: the ReLU passes are
// bit masks, the bias sums add each channel's pixels in pixel order with the
// running sum as the first operand, the pool's window scan is three strict,
// NaN-false greater-than replacements, and its scatter stores +0 + g. Only
// VEX-encoded instructions appear: a legacy SSE instruction between them
// costs a state transition on every block.

// poolForwardAVX2 walks the flattened C × outH × outW output one cell at a
// time in general registers, so any output width, 3 included, fills whole
// blocks: R10 is the cell's window, as the input offset of its top-left
// element, R12 the same position within its plane, R13 the cells left in its
// output row and R14 the rows left in its plane. NEXT steps them to the next
// cell and ends at label. It reads the body's arguments and stands here,
// before any TEXT, because vet's asmdecl would hold it to the frame of the
// function above it.
#define NEXT(label) \
	ADDQ $2, R10; \
	ADDQ $2, R12; \
	DECQ R13; \
	JNZ  label; \
	MOVQ outW+40(FP), R13; \
	ADDQ rowSkip+56(FP), R10; \
	ADDQ rowSkip+56(FP), R12; \
	DECQ R14; \
	JNZ  label; \
	MOVQ outH+48(FP), R14; \
	ADDQ planeSkip+64(FP), R10; \
	XORQ R12, R12; \
label:

// func reluRectifyAVX2(x *float64, n int)
//
// x &^ (0 > x as int64): every word with its sign bit set becomes +0.
TEXT ·reluRectifyAVX2(SB), NOSPLIT, $0-16
	MOVQ  x+0(FP), DI
	MOVQ  n+8(FP), CX
	SHLQ  $3, CX                         // end offset, bytes
	VPXOR Y15, Y15, Y15
	XORQ  AX, AX

rectify:
	VMOVDQU  (DI)(AX*1), Y0
	VPCMPGTQ Y0, Y15, Y1                 // sign bit set
	VPANDN   Y0, Y1, Y0
	VMOVDQU  Y0, (DI)(AX*1)
	ADDQ     $32, AX
	CMPQ     AX, CX
	JLT      rectify

	VZEROUPPER
	RET

// func reluGateAVX2(grad, out *float64, n int)
//
// grad &^ (out == 0 as int64): the gradient survives where out's bits are not
// all zero.
TEXT ·reluGateAVX2(SB), NOSPLIT, $0-24
	MOVQ  grad+0(FP), DI
	MOVQ  out+8(FP), SI
	MOVQ  n+16(FP), CX
	SHLQ  $3, CX                         // end offset, bytes
	VPXOR Y15, Y15, Y15
	XORQ  AX, AX

gate:
	VPCMPEQQ (SI)(AX*1), Y15, Y0         // out is +0
	VPANDN   (DI)(AX*1), Y0, Y0
	VMOVDQU  Y0, (DI)(AX*1)
	ADDQ     $32, AX
	CMPQ     AX, CX
	JLT      gate

	VZEROUPPER
	RET

// func biasSumsAVX2(gb, grad *float64, channels, plane, n int)
//
// Four channels a register: each block of four pixels of the four channel
// rows is transposed so that register j holds pixel p+j of all four, and the
// four are added to the running sums in pixel order.
TEXT ·biasSumsAVX2(SB), NOSPLIT, $0-40
	MOVQ gb+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ channels+16(FP), CX
	MOVQ plane+24(FP), DX
	SHLQ $3, DX                          // plane stride, bytes
	MOVQ n+32(FP), R8
	SHLQ $3, R8                          // pixel end offset, bytes
	LEAQ (DX)(DX*2), R9                  // three planes, bytes
	XORQ BX, BX                          // first channel of the group

group:
	LEAQ    (SI)(DX*1), R11
	LEAQ    (SI)(DX*2), R12
	LEAQ    (SI)(R9*1), R13
	VMOVUPD (DI)(BX*8), Y0               // the four running sums
	XORQ    AX, AX

pixels:
	VMOVUPD    (SI)(AX*1), Y1            // channel 0, pixels p..p+3
	VMOVUPD    (R11)(AX*1), Y2
	VMOVUPD    (R12)(AX*1), Y3
	VMOVUPD    (R13)(AX*1), Y4
	VUNPCKLPD  Y2, Y1, Y5                // 0:p 1:p 0:p+2 1:p+2
	VUNPCKHPD  Y2, Y1, Y6                // 0:p+1 1:p+1 0:p+3 1:p+3
	VUNPCKLPD  Y4, Y3, Y7
	VUNPCKHPD  Y4, Y3, Y8
	VPERM2F128 $0x20, Y7, Y5, Y1         // pixel p of the four channels
	VPERM2F128 $0x20, Y8, Y6, Y2         // p+1
	VPERM2F128 $0x31, Y7, Y5, Y3         // p+2
	VPERM2F128 $0x31, Y8, Y6, Y4         // p+3
	VADDPD     Y1, Y0, Y0
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y0, Y0
	VADDPD     Y4, Y0, Y0
	ADDQ       $32, AX
	CMPQ       AX, R8
	JLT        pixels

	VMOVUPD Y0, (DI)(BX*8)
	LEAQ    (SI)(DX*4), SI
	ADDQ    $4, BX
	CMPQ    BX, CX
	JLT     group

	VZEROUPPER
	RET

// func poolForwardAVX2(in, out, idx *float64, cells, w, outW, outH, rowSkip, planeSkip int, wf float64)
//
// Per block of four cells the windows' rows are gathered two elements at a
// time and split into a, b, c, d of the four cells; the position P of each
// window's a is converted to a float. The scan keeps the best value and its
// float index: a and P, replaced by b and P+1 where b > best, by c and P+w
// where c > best, by d and P+w+1 where d > best.
TEXT ·poolForwardAVX2(SB), NOSPLIT, $0-80
	MOVQ         in+0(FP), DI
	MOVQ         w+32(FP), SI
	LEAQ         (DI)(SI*8), SI          // the windows' bottom row
	MOVQ         out+8(FP), R8
	MOVQ         idx+16(FP), R9
	MOVQ         cells+24(FP), CX
	SHLQ         $3, CX                  // end offset, bytes
	XORQ         R10, R10
	XORQ         R12, R12
	MOVQ         outW+40(FP), R13
	MOVQ         outH+48(FP), R14
	VXORPD       Y15, Y15, Y15
	MOVQ         $0x3ff0000000000000, AX
	VMOVQ        AX, X14
	VBROADCASTSD X14, Y14                // the index offsets of b: 1,
	VBROADCASTSD wf+72(FP), Y13          // of c: w,
	VADDPD       Y14, Y13, Y12           // of d: w + 1
	XORQ         AX, AX

fblock:
	VMOVUPD     (DI)(R10*8), X0          // cell 0's a, b
	VMOVUPD     (SI)(R10*8), X2          // its c, d
	VCVTSI2SDQ  R12, X15, X4             // its P
	NEXT(fcell1)
	VMOVUPD     (DI)(R10*8), X1
	VMOVUPD     (SI)(R10*8), X3
	VCVTSI2SDQ  R12, X15, X5
	NEXT(fcell2)
	VINSERTF128 $1, (DI)(R10*8), Y0, Y0
	VINSERTF128 $1, (SI)(R10*8), Y2, Y2
	VCVTSI2SDQ  R12, X15, X6
	NEXT(fcell3)
	VINSERTF128 $1, (DI)(R10*8), Y1, Y1
	VINSERTF128 $1, (SI)(R10*8), Y3, Y3
	VCVTSI2SDQ  R12, X15, X7
	NEXT(fcell4)
	VUNPCKLPD   Y1, Y0, Y8               // a of cells 0..3
	VUNPCKHPD   Y1, Y0, Y9               // b
	VUNPCKLPD   Y3, Y2, Y10              // c
	VUNPCKHPD   Y3, Y2, Y11              // d
	VUNPCKLPD   X5, X4, X4
	VUNPCKLPD   X7, X6, X6
	VINSERTF128 $1, X6, Y4, Y4           // P of cells 0..3

	VCMPPD    $0x1e, Y8, Y9, Y5          // b > best (GT_OQ: false on NaN)
	VBLENDVPD Y5, Y9, Y8, Y8
	VADDPD    Y14, Y4, Y6                // P + 1
	VBLENDVPD Y5, Y6, Y4, Y7
	VCMPPD    $0x1e, Y8, Y10, Y5         // c > best
	VBLENDVPD Y5, Y10, Y8, Y8
	VADDPD    Y13, Y4, Y6                // P + w
	VBLENDVPD Y5, Y6, Y7, Y7
	VCMPPD    $0x1e, Y8, Y11, Y5         // d > best
	VBLENDVPD Y5, Y11, Y8, Y8
	VADDPD    Y12, Y4, Y6                // P + w + 1
	VBLENDVPD Y5, Y6, Y7, Y7
	VMOVUPD   Y8, (R8)(AX*1)
	VMOVUPD   Y7, (R9)(AX*1)
	ADDQ      $32, AX
	CMPQ      AX, CX
	JLT       fblock

	VZEROUPPER
	RET

// PLANE steps poolScatterAVX2's plane walk past one cell and ends at label.
#define PLANE(label) \
	DECQ R13; \
	JNZ  label; \
	MOVQ R12, R13; \
	ADDQ R11, BX; \
label:

// func poolScatterAVX2(gradIn, gradOut, idx *float64, cells, planeIn, planeOut int) int
//
// Four cells a block: the argmaxes converted to integers and +0 + g taken
// four a register, then each lane stored at its plane's offset plus its
// argmax. BX is the current plane's offset in gradIn, R13 the cells left in
// it; the walk crosses planes cell by cell, so blocks straddle them. A block
// whose argmaxes are not all in [0, planeIn) stores nothing and ends the
// body, which returns the cells it stored.
TEXT ·poolScatterAVX2(SB), NOSPLIT, $0-56
	MOVQ         gradIn+0(FP), DI
	MOVQ         gradOut+8(FP), R8
	MOVQ         idx+16(FP), R9
	MOVQ         cells+24(FP), CX
	SHLQ         $3, CX                  // end offset, bytes
	MOVQ         planeIn+32(FP), R11
	MOVQ         planeOut+40(FP), R12
	MOVQ         R12, R13
	XORQ         BX, BX
	XORQ         AX, AX
	VXORPD       Y15, Y15, Y15
	LEAQ         -1(R11), R10
	VMOVD        R10, X14
	VPBROADCASTD X14, X14                // the largest argmax, four int32

scatter:
	VCVTTPD2DQY  (R9)(AX*1), X1          // the four argmaxes
	VPMINUD      X14, X1, X2
	VPCMPEQD     X2, X1, X2
	VMOVMSKPS    X2, R10
	CMPQ         R10, $15
	JNE          done                    // one out of the plane
	VADDPD       (R8)(AX*1), Y15, Y0     // +0 + g
	VEXTRACTF128 $1, Y0, X2
	VMOVD        X1, R10
	ADDQ         BX, R10
	VMOVSD       X0, (DI)(R10*8)
	PLANE(scatter1)
	VPEXTRD      $1, X1, R10
	ADDQ         BX, R10
	VMOVHPD      X0, (DI)(R10*8)
	PLANE(scatter2)
	VPEXTRD      $2, X1, R10
	ADDQ         BX, R10
	VMOVSD       X2, (DI)(R10*8)
	PLANE(scatter3)
	VPEXTRD      $3, X1, R10
	ADDQ         BX, R10
	VMOVHPD      X2, (DI)(R10*8)
	PLANE(scatter4)
	ADDQ         $32, AX
	CMPQ         AX, CX
	JLT          scatter

done:
	SHRQ       $3, AX                    // the cells stored
	MOVQ       AX, ret+48(FP)
	VZEROUPPER
	RET
