#include "textflag.h"

// AVX2 bodies of Leaf.Step and Tier.mean (see kernel_amd64.go for the
// contracts and DESIGN.md §12 "Vector bodies" for the argument). A lane is one
// element, never a slice of a reduction: every element goes through the Go
// loop's multiplies and adds, in its order, with the same first operand, and
// never through a fused multiply-add — the Go compiler does not fuse on amd64,
// so the unfused pair is what the Go loops compute and what every golden file
// was recorded with.

// func leafStepAVX2(x, y, gradSum, ySum, grad *float64, n int, negEta, gamma, negGamma float64)
//
// Lines 5–6 over n elements, four a step, n % 4 == 0, n >= 4: per element
// Σ∇F += g; y_prev = y; y = x + (−η)·g; Σy += y; x = y + γ·y + (−γ)·y_prev,
// loading and storing each vector where the Go loop does.
TEXT ·leafStepAVX2(SB), NOSPLIT, $0-72
	MOVQ         x+0(FP), DI
	MOVQ         y+8(FP), SI
	MOVQ         gradSum+16(FP), R8
	MOVQ         ySum+24(FP), R9
	MOVQ         grad+32(FP), R10
	MOVQ         n+40(FP), CX
	SHLQ         $3, CX                  // end offset, bytes
	VBROADCASTSD negEta+48(FP), Y0
	VBROADCASTSD gamma+56(FP), Y1
	VBROADCASTSD negGamma+64(FP), Y2
	XORQ         AX, AX

step:
	VMOVUPD (R10)(AX*1), Y3              // g
	VMOVUPD (R8)(AX*1), Y4
	VADDPD  Y3, Y4, Y4                   // Σ∇F + g
	VMOVUPD Y4, (R8)(AX*1)
	VMOVUPD (SI)(AX*1), Y5               // y_prev
	VMULPD  Y3, Y0, Y6                   // (−η)·g
	VMOVUPD (DI)(AX*1), Y7
	VADDPD  Y6, Y7, Y7                   // y = x + (−η)·g
	VMOVUPD Y7, (SI)(AX*1)
	VMOVUPD (R9)(AX*1), Y8
	VADDPD  Y7, Y8, Y8                   // Σy + y
	VMOVUPD Y8, (R9)(AX*1)
	VMULPD  Y7, Y1, Y9                   // γ·y
	VADDPD  Y9, Y7, Y9                   // y + γ·y
	VMULPD  Y5, Y2, Y10                  // (−γ)·y_prev
	VADDPD  Y10, Y9, Y9                  // x
	VMOVUPD Y9, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     step

	VZEROUPPER
	RET

// func tierMeanAVX2(yMinus, xPlus, yPlus *float64, n int, w *float64, ys, xs *tensor.Vector, reporters int, gamma, negGamma float64, momentum bool)
//
// Lines 11–13 and the y_ℓ+ roll over n elements, four a block, n % 4 == 0,
// n >= 4, reporters >= 1. Per block two accumulators start at +0 and take
// w_j·y_j and w_j·x_j for j ascending (ys and xs are arrays of slice
// headers, 24 bytes each, data pointer first); then y_ℓ− is the first, x_ℓ+
// is line 13 of the second — y⁺ + γ·y⁺ + (−γ)·y_ℓ+ — or, without momentum,
// the second itself, and y_ℓ+ becomes the second.
TEXT ·tierMeanAVX2(SB), NOSPLIT, $0-81
	MOVQ         yMinus+0(FP), DI
	MOVQ         xPlus+8(FP), SI
	MOVQ         yPlus+16(FP), DX
	MOVQ         n+24(FP), CX
	SHLQ         $3, CX                  // end offset, bytes
	MOVQ         w+32(FP), R8
	MOVQ         ys+40(FP), R9
	MOVQ         xs+48(FP), R10
	MOVQ         reporters+56(FP), R11
	VBROADCASTSD gamma+64(FP), Y14
	VBROADCASTSD negGamma+72(FP), Y15
	MOVBQZX      momentum+80(FP), R14
	XORQ         AX, AX

block:
	VXORPD Y0, Y0, Y0                    // y_ℓ− accumulator, +0
	VXORPD Y1, Y1, Y1                    // y⁺ accumulator, +0
	XORQ   R12, R12                      // reporter j
	XORQ   BX, BX                        // j's slice header, bytes

reporter:
	VBROADCASTSD (R8)(R12*8), Y2         // w_j
	MOVQ         (R9)(BX*1), R13
	VMOVUPD      (R13)(AX*1), Y3
	VMULPD       Y3, Y2, Y3              // w_j·y_j
	VADDPD       Y3, Y0, Y0
	MOVQ         (R10)(BX*1), R13
	VMOVUPD      (R13)(AX*1), Y4
	VMULPD       Y4, Y2, Y4              // w_j·x_j
	VADDPD       Y4, Y1, Y1
	ADDQ         $24, BX
	INCQ         R12
	CMPQ         R12, R11
	JLT          reporter

	VMOVUPD Y0, (DI)(AX*1)
	VMOVAPD Y1, Y5                       // x_ℓ+ without momentum: y⁺
	TESTQ   R14, R14
	JZ      store
	VMULPD  Y1, Y14, Y6                  // γ·y⁺
	VADDPD  Y6, Y1, Y5                   // y⁺ + γ·y⁺
	VMOVUPD (DX)(AX*1), Y7               // y_ℓ+ of the previous round
	VMULPD  Y7, Y15, Y7                  // (−γ)·y_ℓ+
	VADDPD  Y7, Y5, Y5

store:
	VMOVUPD Y5, (SI)(AX*1)
	VMOVUPD Y1, (DX)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     block

	VZEROUPPER
	RET
