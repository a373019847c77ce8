//go:build amd64

#include "textflag.h"

// STEP adds one 16-byte block of the bound sum Σ max(0, |q_j − r_j| − 1)²
// to the four 32-bit lanes of acc: X0 holds the query block, row the
// candidate block's address. Two saturating subtracts and an OR give the
// per-byte |Δ|, a third saturating subtract (X4 = 0x01 per byte) applies
// the −1 clamp of the half-cell slack, a zero unpack (X7 = 0) widens bytes
// to words, and PMADDWL squares and pair-sums them.
#define STEP(row, acc) \
	MOVOU	row, X1; \
	MOVO	X0, X2; \
	PSUBUSB	X1, X2; \
	PSUBUSB	X0, X1; \
	POR	X1, X2; \
	PSUBUSB	X4, X2; \
	MOVO	X2, X3; \
	PUNPCKLBW	X7, X2; \
	PUNPCKHBW	X7, X3; \
	PMADDWL	X2, X2; \
	PMADDWL	X3, X3; \
	PADDL	X2, acc; \
	PADDL	X3, acc

// func quantRejectTileSSE2(q, rows *uint8, blocks, count int, lim int64) uint64
//
// The reject mask of count ≤ 64 consecutive padded code rows (blocks×16
// bytes each) against the query row q: bit r is set iff row r's bound sum
// exceeds lim. SSE2 only (the amd64 baseline, no feature detection). Four
// rows share one pass over the query's blocks, one accumulator each; a
// PUNPCK transpose folds the four accumulators into one vector of the four
// row sums, PCMPGTL compares them with lim in every lane and MOVMSKPS
// lifts the four verdicts into the mask. A remainder of 1–3 rows goes row
// by row. The compare is exact: quantMaxDims keeps every sum and lane
// under 2³¹, and sumLimit's range [−1, quantSumMax] fits a signed 32-bit
// lane. BP, R14, R15 and X15 are left untouched.
TEXT ·quantRejectTileSSE2(SB), NOSPLIT, $0-48
	MOVQ	q+0(FP), R8
	MOVQ	rows+8(FP), DI
	MOVQ	blocks+16(FP), R9
	MOVQ	count+24(FP), R10
	MOVQ	lim+32(FP), X8
	PSHUFL	$0, X8, X8       // lim in every lane
	PXOR	X7, X7           // zero: unpack source and ones builder
	PCMPEQL	X5, X5           // 0xFF per byte
	PXOR	X4, X4
	PSUBB	X5, X4           // 0x01 per byte
	MOVQ	R9, R11
	SHLQ	$4, R11          // row stride in bytes
	LEAQ	(R11)(R11*2), R12 // three row strides
	XORQ	BX, BX           // first row of the current group
	XORQ	DX, DX           // the mask

quad:
	LEAQ	4(BX), AX
	CMPQ	AX, R10
	JGT	tail
	MOVQ	R8, SI
	MOVQ	DI, R13
	MOVQ	R9, CX
	PXOR	X9, X9
	PXOR	X10, X10
	PXOR	X11, X11
	PXOR	X12, X12

quadblock:
	MOVOU	(SI), X0
	STEP((R13), X9)
	STEP((R13)(R11*1), X10)
	STEP((R13)(R11*2), X11)
	STEP((R13)(R12*1), X12)
	ADDQ	$16, SI
	ADDQ	$16, R13
	DECQ	CX
	JNZ	quadblock

	// Transpose-and-add: lanes [a0 a1 a2 a3], [b…], [c…], [d…] become
	// the row sums [a b c d].
	MOVO	X9, X1
	PUNPCKLLQ	X10, X9  // a0 b0 a1 b1
	PUNPCKHLQ	X10, X1  // a2 b2 a3 b3
	PADDL	X1, X9
	MOVO	X11, X2
	PUNPCKLLQ	X12, X11 // c0 d0 c1 d1
	PUNPCKHLQ	X12, X2  // c2 d2 c3 d3
	PADDL	X2, X11
	MOVO	X9, X1
	PUNPCKLQDQ	X11, X9  // a02 b02 c02 d02
	PUNPCKHQDQ	X11, X1  // a13 b13 c13 d13
	PADDL	X1, X9
	PCMPGTL	X8, X9           // sum > lim per lane
	MOVMSKPS	X9, AX
	MOVQ	BX, CX
	SHLQ	CX, AX
	ORQ	AX, DX
	LEAQ	(DI)(R11*4), DI
	ADDQ	$4, BX
	JMP	quad

tail:
	CMPQ	BX, R10
	JGE	done
	MOVQ	R8, SI
	MOVQ	R9, CX
	PXOR	X9, X9

tailblock:
	MOVOU	(SI), X0
	STEP((DI), X9)
	ADDQ	$16, SI
	ADDQ	$16, DI
	DECQ	CX
	JNZ	tailblock

	PSHUFL	$0x4E, X9, X1    // swap 64-bit halves
	PADDL	X1, X9
	PSHUFL	$0xB1, X9, X1    // swap 32-bit pairs
	PADDL	X1, X9
	PCMPGTL	X8, X9
	MOVMSKPS	X9, AX
	ANDQ	$1, AX
	MOVQ	BX, CX
	SHLQ	CX, AX
	ORQ	AX, DX
	INCQ	BX
	JMP	tail

done:
	MOVQ	DX, ret+40(FP)
	RET
