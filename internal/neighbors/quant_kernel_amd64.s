//go:build amd64

#include "textflag.h"

// func quantSqSumSSE2(a, b *uint8, blocks int) int64
//
// The quantized prefilter's bound sum Σ max(0, |a_i − b_i| − 1)² over
// blocks×16 code bytes, SSE2 only (the amd64 baseline — no feature
// detection needed). Per block: two saturating subtracts and an OR give
// the per-byte absolute difference, one more saturating subtract applies
// the −1 clamp of the half-cell slack, a zero unpack widens bytes to
// words, and PMADDWL squares and pair-sums them into four 32-bit
// accumulator lanes. quantMaxDims (2¹⁵ dims, so Σ ≤ 2¹⁵·254² < 2³¹)
// guarantees the lanes and the folded total never overflow.
TEXT ·quantSqSumSSE2(SB), NOSPLIT, $0-32
	MOVQ	a+0(FP), SI
	MOVQ	b+8(FP), DI
	MOVQ	blocks+16(FP), CX
	PXOR	X7, X7        // zero: unpack source and ones builder
	PXOR	X6, X6        // accumulator, 4×32-bit lanes
	PCMPEQL	X5, X5        // 0xFF per byte
	PXOR	X4, X4
	PSUBB	X5, X4        // 0x01 per byte

loop:
	MOVOU	(SI), X0
	MOVOU	(DI), X1
	MOVO	X0, X2
	PSUBUSB	X1, X2        // max(a−b, 0) per byte
	PSUBUSB	X0, X1        // max(b−a, 0) per byte
	POR	X1, X2            // |a−b|
	PSUBUSB	X4, X2        // max(|a−b|−1, 0)
	MOVO	X2, X3
	PUNPCKLBW	X7, X2    // low 8 bytes → 8 words
	PUNPCKHBW	X7, X3    // high 8 bytes → 8 words
	PMADDWL	X2, X2        // 4×32: adjacent squares pair-summed
	PMADDWL	X3, X3
	PADDL	X2, X6
	PADDL	X3, X6
	ADDQ	$16, SI
	ADDQ	$16, DI
	DECQ	CX
	JNZ	loop

	// Fold the four lanes; every partial stays under 2³¹ (quantMaxDims).
	PSHUFL	$0x4E, X6, X0 // swap 64-bit halves
	PADDL	X0, X6
	PSHUFL	$0xB1, X6, X0 // swap 32-bit pairs
	PADDL	X0, X6
	MOVQ	X6, AX
	MOVL	AX, AX        // low lane only; the neighbour duplicates it
	MOVQ	AX, ret+24(FP)
	RET

// func quantSqSumTileSSE2(q, rows *uint8, blocks, count int, out *int64)
//
// The tile form of the bound sum: one call computes the sums of `count`
// consecutive padded code rows against the same query row, storing them
// into out[0:count]. Same arithmetic per row as quantSqSumSSE2; hoisting
// the loop over rows into assembly keeps the byte-constant registers live
// and drops the per-candidate call overhead.
TEXT ·quantSqSumTileSSE2(SB), NOSPLIT, $0-40
	MOVQ	q+0(FP), R8
	MOVQ	rows+8(FP), DI
	MOVQ	blocks+16(FP), R9
	MOVQ	count+24(FP), R10
	MOVQ	out+32(FP), R11
	PXOR	X7, X7        // zero: unpack source and ones builder
	PCMPEQL	X5, X5        // 0xFF per byte
	PXOR	X4, X4
	PSUBB	X5, X4        // 0x01 per byte

rowloop:
	MOVQ	R8, SI        // rewind to the query row
	MOVQ	R9, CX
	PXOR	X6, X6        // per-row accumulator, 4×32-bit lanes

blockloop:
	MOVOU	(SI), X0
	MOVOU	(DI), X1
	MOVO	X0, X2
	PSUBUSB	X1, X2        // max(q−row, 0) per byte
	PSUBUSB	X0, X1        // max(row−q, 0) per byte
	POR	X1, X2            // |q−row|
	PSUBUSB	X4, X2        // max(|q−row|−1, 0)
	MOVO	X2, X3
	PUNPCKLBW	X7, X2    // low 8 bytes → 8 words
	PUNPCKHBW	X7, X3    // high 8 bytes → 8 words
	PMADDWL	X2, X2        // 4×32: adjacent squares pair-summed
	PMADDWL	X3, X3
	PADDL	X2, X6
	PADDL	X3, X6
	ADDQ	$16, SI
	ADDQ	$16, DI
	DECQ	CX
	JNZ	blockloop

	PSHUFL	$0x4E, X6, X0
	PADDL	X0, X6
	PSHUFL	$0xB1, X6, X0
	PADDL	X0, X6
	MOVQ	X6, AX
	MOVL	AX, AX
	MOVQ	AX, (R11)
	ADDQ	$8, R11
	DECQ	R10
	JNZ	rowloop
	RET
