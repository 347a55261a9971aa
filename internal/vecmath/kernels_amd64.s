//go:build !purego

#include "textflag.h"

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func PrefetchRows(data []float32, dim int, ids []int32)
TEXT ·PrefetchRows(SB), NOSPLIT, $0-56
	MOVQ data_base+0(FP), SI
	MOVQ dim+24(FP), DX
	SHLQ $2, DX                  // row stride in bytes
	MOVQ ids_base+32(FP), DI
	MOVQ ids_len+40(FP), CX
	TESTQ CX, CX
	JEQ  prefetchDone

prefetchLoop:
	MOVLQSX (DI), AX
	IMULQ DX, AX
	PREFETCHT0 (SI)(AX*1)
	PREFETCHT0 64(SI)(AX*1)
	ADDQ $4, DI
	DECQ CX
	JNZ  prefetchLoop

prefetchDone:
	RET

// One 4-dim step: the four float32 pairs at element i are widened to
// float64 and lane j of Y0 (the accumulator sj of the Go kernel) gains
// (a[i+j]-b[i+j])², rounded after the multiply and after the add.
#define STEP4(off) \
	VCVTPS2PD off(SI)(AX*4), Y1; \
	VCVTPS2PD off(DI)(AX*4), Y2; \
	VSUBPD    Y2, Y1, Y1;        \
	VMULPD    Y1, Y1, Y1;        \
	VADDPD    Y1, Y0, Y0

// ((s0+s1)+s2)+s3 into X5, given X0 = {s0, s1} and X3 = {s2, s3}: the
// order of Go's s0 + s1 + s2 + s3.
#define HSUM \
	VUNPCKHPD X0, X0, X4; \
	VADDSD    X4, X0, X5; \
	VADDSD    X3, X5, X5; \
	VUNPCKHPD X3, X3, X4; \
	VADDSD    X4, X5, X5

// func squaredL2BoundedAVX2(a, b []float32, bound float64) float64
//
// SquaredL2BoundedGeneric (kernels.go) with the accumulators s0..s3 held in the
// four float64 lanes of Y0. Separate VMULPD and VADDPD, never FMA, so
// each lane rounds exactly as its Go accumulator does.
TEXT ·squaredL2BoundedAVX2(SB), NOSPLIT, $0-64
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VMOVSD bound+48(FP), X7
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

	// 16-dim blocks while i+16 <= n, checking the partial sum after each.
	MOVQ CX, DX
	SUBQ $16, DX

blockLoop:
	CMPQ AX, DX
	JGT  quadPrep
	STEP4(0)
	STEP4(16)
	STEP4(32)
	STEP4(48)
	ADDQ $16, AX
	VEXTRACTF128 $1, Y0, X3
	HSUM
	VUCOMISD X7, X5
	JA   abandon                 // partial > bound; false when unordered, like Go's >
	JMP  blockLoop

abandon:
	VMOVSD X5, ret+56(FP)
	VZEROUPPER
	RET

quadPrep:
	// 4-dim steps while i+4 <= n.
	MOVQ CX, DX
	SUBQ $4, DX

quadLoop:
	CMPQ AX, DX
	JGT  scalarPrep
	STEP4(0)
	ADDQ $4, AX
	JMP  quadLoop

scalarPrep:
	// Save {s2, s3} first: the scalar ops below write X0 with VEX.128
	// encodings, which zero the upper half of Y0.
	VEXTRACTF128 $1, Y0, X3

scalarLoop:
	CMPQ AX, CX
	JGE  done
	VCVTSS2SD (SI)(AX*4), X1, X1
	VCVTSS2SD (DI)(AX*4), X2, X2
	VSUBSD    X2, X1, X1
	VMULSD    X1, X1, X1
	VADDSD    X1, X0, X0         // s0 += d*d; s1 in the high half stays
	INCQ AX
	JMP  scalarLoop

done:
	HSUM
	VMOVSD X5, ret+56(FP)
	VZEROUPPER
	RET

// Lane l of S is the distance of centroid 4b+l of the block just summed,
// b the block index in every lane of Y11. Where S < Y9 (ordered: a NaN
// distance never takes), the lane's minimum Y9 and its block index Y10
// take the new values; strict <, so within a lane the first index
// wins. Then Y11 steps to the next block (Y12 holds -1).
#define TAKEMIN(S) \
	VCMPPD    $0x11, Y9, S, Y13;   \
	VBLENDVPD Y13, S, Y9, Y9;      \
	VBLENDVPD Y13, Y11, Y10, Y10;  \
	VPSUBQ    Y12, Y11, Y11

// One dimension of one block: Yacc += (x[j] - c)² per lane, with x[j]
// broadcast in Y4 and c the block's four float32 coordinates j at
// addr. Separate VMULPD and VADDPD, never FMA, so each lane rounds as
// s += float64(diff*diff) does.
#define DIMSTEP(addr, Yt, Yacc) \
	VCVTPS2PD addr, Yt;   \
	VSUBPD    Yt, Y4, Yt; \
	VMULPD    Yt, Yt, Yt; \
	VADDPD    Yt, Yacc, Yacc

// func nearestAVX2(x, packed []float32, mins *[4]float64, blks *[4]int64)
//
// The lane sums of nearestGeneric (nearest.go) over the packed
// codebook, four blocks (16 centroids) per pass for instruction-level
// parallelism, then one block at a time. Lane l ends with the smallest
// distance among centroids 4b+l in mins[l] and its b in blks[l];
// Centers.Nearest reduces the four lanes.
TEXT ·nearestAVX2(SB), NOSPLIT, $0-64
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHLQ $2, CX                  // 4d: byte length of x
	MOVQ packed_base+24(FP), DI
	MOVQ packed_len+32(FP), BX
	LEAQ (DI)(BX*4), BX          // end of the packed codebook
	MOVQ CX, DX
	SHLQ $2, DX                  // 16d: byte stride of a block
	MOVQ DX, R14
	SHLQ $2, R14                 // stride of four blocks
	MOVQ mins+48(FP), R8
	MOVQ blks+56(FP), R9

	MOVQ         $0x7FF0000000000000, AX
	VMOVQ        AX, X9
	VBROADCASTSD X9, Y9          // lane minima: +Inf
	VPXOR        Y10, Y10, Y10   // block index of each lane minimum
	VPXOR        Y11, Y11, Y11   // current block index
	VPCMPEQQ     Y12, Y12, Y12   // -1 in every lane

quadBlocks:
	MOVQ BX, AX
	SUBQ DI, AX
	CMPQ AX, R14
	JLT  oneBlock
	LEAQ (DI)(DX*1), R11
	LEAQ (DI)(DX*2), R12
	LEAQ (R11)(DX*2), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX                // 4j: byte offset of x[j]; 16j in a block

quadDims:
	VBROADCASTSS (SI)(AX*1), X4
	VCVTPS2PD    X4, Y4
	DIMSTEP((DI)(AX*4), Y5, Y0)
	DIMSTEP((R11)(AX*4), Y6, Y1)
	DIMSTEP((R12)(AX*4), Y7, Y2)
	DIMSTEP((R13)(AX*4), Y8, Y3)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  quadDims
	TAKEMIN(Y0)
	TAKEMIN(Y1)
	TAKEMIN(Y2)
	TAKEMIN(Y3)
	ADDQ R14, DI
	JMP  quadBlocks

oneBlock:
	CMPQ   DI, BX
	JGE    nearestDone
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

oneDims:
	VBROADCASTSS (SI)(AX*1), X4
	VCVTPS2PD    X4, Y4
	DIMSTEP((DI)(AX*4), Y5, Y0)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  oneDims
	TAKEMIN(Y0)
	ADDQ DX, DI
	JMP  oneBlock

nearestDone:
	VMOVUPD Y9, (R8)
	VMOVDQU Y10, (R9)
	VZEROUPPER
	RET

// The two product kernels below share one step: for output rows r0 and
// r1 (Y0–Y3 and Y4–Y7, lane = output column, sixteen columns) add
// x0·brow and x1·brow, with x0 and x1 broadcast in Y12 and Y13 and
// brow the sixteen float64s at B. Y8–Y11 mask the columns past the
// group's width: masked lanes load as zero, and are never stored.
// Separate VMULPD and VADDPD, never FMA, so each lane rounds as the Go
// chain acc += float64(x*b) does. The operands sit in the order the Go
// loops compile to by default, b·x and then product + acc (x86 keeps
// the first operand's payload when both are NaN), but the compiler does
// not promise that order, so only NaN-ness, not the payload, is part of
// the contract.
#define MULBLK(off, B, M, ACC0, ACC1) \
	VMASKMOVPD off(B), M, Y14;  \
	VMULPD     Y12, Y14, Y15;   \
	VADDPD     ACC0, Y15, ACC0; \
	VMULPD     Y13, Y14, Y15;   \
	VADDPD     ACC1, Y15, ACC1

#define MULSTEP(B) \
	MULBLK(0, B, Y8, Y0, Y4);   \
	MULBLK(32, B, Y9, Y1, Y5);  \
	MULBLK(64, B, Y10, Y2, Y6); \
	MULBLK(96, B, Y11, Y3, Y7)

#define LOADMASKS(P) \
	VMOVDQU 0(P), Y8;   \
	VMOVDQU 32(P), Y9;  \
	VMOVDQU 64(P), Y10; \
	VMOVDQU 96(P), Y11

// Stores row r0 to O0 and row r1 to O1, masked. When the two rows are
// one row (an odd last row), O0 == O1 and both stores write the same
// values.
#define STOREROWS(O0, O1) \
	VMASKMOVPD Y4, Y8, 0(O1);   \
	VMASKMOVPD Y5, Y9, 32(O1);  \
	VMASKMOVPD Y6, Y10, 64(O1); \
	VMASKMOVPD Y7, Y11, 96(O1); \
	VMASKMOVPD Y0, Y8, 0(O0);   \
	VMASKMOVPD Y1, Y9, 32(O0);  \
	VMASKMOVPD Y2, Y10, 64(O0); \
	VMASKMOVPD Y3, Y11, 96(O0)

// Replaces each lane of Y0–Y7 with 1 where it is ≥ 0 (either zero) and
// −1 where it is below zero or NaN (an ordered compare), as
// signInPlace does.
#define SIGNROWS \
	MOVQ         $0x3FF0000000000000, AX; \
	VMOVQ        AX, X12;                  \
	VBROADCASTSD X12, Y12;                 \
	MOVQ         $0xBFF0000000000000, AX; \
	VMOVQ        AX, X13;                  \
	VBROADCASTSD X13, Y13;                 \
	VXORPD       Y14, Y14, Y14;            \
	SIGN1(Y0); SIGN1(Y1); SIGN1(Y2); SIGN1(Y3); \
	SIGN1(Y4); SIGN1(Y5); SIGN1(Y6); SIGN1(Y7)

#define SIGN1(Y) \
	VCMPPD    $0x1D, Y14, Y, Y15; \
	VBLENDVPD Y15, Y12, Y13, Y

// func mulRowsAVX2(a []float64, lda int, b []float64, ldb int, out []float64, ldo, rows, k int, mask *[16]int64, sign bool)
//
// mulRowsGeneric (product.go) for one group of up to sixteen output
// columns: for each of rows rows of a (stride lda) it sets the group's
// row of out (stride ldo) to Σ_t a[i][t]·b[t][·], t = 0..k−1 ascending
// from +0, or to the sign of that sum when sign is set, two rows per
// pass; an odd last row is computed as a pair of itself.
TEXT ·mulRowsAVX2(SB), NOSPLIT, $0-121
	MOVQ a_base+0(FP), SI
	MOVQ lda+24(FP), R10
	SHLQ $3, R10                 // a row stride in bytes
	MOVQ b_base+32(FP), DI
	MOVQ ldb+56(FP), BX
	SHLQ $3, BX                  // b row stride
	MOVQ out_base+64(FP), DX
	MOVQ ldo+88(FP), R11
	SHLQ $3, R11                 // out row stride
	MOVQ rows+96(FP), CX
	MOVQ k+104(FP), R12
	MOVQ mask+112(FP), R14
	LOADMASKS(R14)

rowPair:
	CMPQ CX, $0
	JLE  rowsDone
	MOVQ SI, R8                  // second row of a, and of out
	MOVQ DX, R9
	CMPQ CX, $2
	JLT  pairReady
	ADDQ R10, R8
	ADDQ R11, R9

pairReady:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   DI, R13               // row t of b
	XORQ   AX, AX                // t

innerLoop:
	CMPQ AX, R12
	JGE  rowStore
	VBROADCASTSD (SI)(AX*8), Y12
	VBROADCASTSD (R8)(AX*8), Y13
	MULSTEP(R13)
	ADDQ BX, R13
	INCQ AX
	JMP  innerLoop

rowStore:
	CMPB sign+120(FP), $0
	JEQ  rowStoreRaw
	SIGNROWS

rowStoreRaw:
	STOREROWS(DX, R9)
	LEAQ (SI)(R10*2), SI
	LEAQ (DX)(R11*2), DX
	SUBQ $2, CX
	JMP  rowPair

rowsDone:
	VZEROUPPER
	RET

// func mulTPAVX2(x0, x1 []float64, lda int, b []float64, ldb, rows int, o0, o1 []float64, mask *[16]int64)
//
// One tile of mulTPGeneric (product.go) for output rows r0 and r1 and
// one group of up to sixteen columns: x0 and x1 start at column r0 and
// r1 of the tile's first row of a (stride lda), b at the group's first
// column of the same row (stride ldb). For each of rows data rows i in
// order, o0 += a[i][r0]·b[i][·] and o1 += a[i][r1]·b[i][·]; the sums
// stay in registers across the tile. When r0 == r1, x0 == x1 and
// o0 == o1.
TEXT ·mulTPAVX2(SB), NOSPLIT, $0-152
	MOVQ x0_base+0(FP), SI
	MOVQ x1_base+24(FP), R8
	MOVQ lda+48(FP), R10
	SHLQ $3, R10                 // a row stride in bytes
	MOVQ b_base+56(FP), R13
	MOVQ ldb+80(FP), BX
	SHLQ $3, BX                  // b row stride
	MOVQ rows+88(FP), CX
	MOVQ o0_base+96(FP), DX
	MOVQ o1_base+120(FP), R9
	MOVQ mask+144(FP), R14
	LOADMASKS(R14)
	VMASKMOVPD 0(DX), Y8, Y0
	VMASKMOVPD 32(DX), Y9, Y1
	VMASKMOVPD 64(DX), Y10, Y2
	VMASKMOVPD 96(DX), Y11, Y3
	VMASKMOVPD 0(R9), Y8, Y4
	VMASKMOVPD 32(R9), Y9, Y5
	VMASKMOVPD 64(R9), Y10, Y6
	VMASKMOVPD 96(R9), Y11, Y7

tpLoop:
	CMPQ CX, $0
	JLE  tpStore
	VBROADCASTSD (SI), Y12
	VBROADCASTSD (R8), Y13
	MULSTEP(R13)
	ADDQ R10, SI
	ADDQ R10, R8
	ADDQ BX, R13
	DECQ CX
	JMP  tpLoop

tpStore:
	STOREROWS(DX, R9)
	VZEROUPPER
	RET

// One 4-column block of a single accumulated row: ACC += x·B[off],
// x broadcast in Y12; mask and operand order as in MULBLK.
#define COVBLK(off, M, ACC) \
	VMASKMOVPD off(R13), M, Y14; \
	VMULPD     Y12, Y14, Y14;    \
	VADDPD     ACC, Y14, ACC

// func covRowAVX2(x, b []float64, ld, rows int, o []float64, mask *[16]int64)
//
// One tile of covRowsGeneric (product.go) for one row a of the upper
// triangle and one group of up to sixteen columns: x starts at column a
// of the tile's first centered row, b at the group's first column, both
// with row stride ld. For each of rows rows i in order, unless
// x[i] == 0 (an ordered compare: NaN is added, −0 skipped, as Go's
// ca == 0), o += x[i]·b[i][·]; the sums stay in Y0–Y3 across the tile.
TEXT ·covRowAVX2(SB), NOSPLIT, $0-96
	MOVQ x_base+0(FP), SI
	MOVQ b_base+24(FP), R13
	MOVQ ld+48(FP), R10
	SHLQ $3, R10                 // row stride in bytes
	MOVQ rows+56(FP), CX
	MOVQ o_base+64(FP), DX
	MOVQ mask+88(FP), R14
	LOADMASKS(R14)
	VMASKMOVPD 0(DX), Y8, Y0
	VMASKMOVPD 32(DX), Y9, Y1
	VMASKMOVPD 64(DX), Y10, Y2
	VMASKMOVPD 96(DX), Y11, Y3
	VXORPD     X15, X15, X15

covLoop:
	CMPQ     CX, $0
	JLE      covStore
	VMOVSD   (SI), X12
	VUCOMISD X15, X12
	JPS      covTake                 // NaN: not equal to zero
	JEQ      covNext                 // ±0: skip the row

covTake:
	VBROADCASTSD X12, Y12
	COVBLK(0, Y8, Y0)
	COVBLK(32, Y9, Y1)
	COVBLK(64, Y10, Y2)
	COVBLK(96, Y11, Y3)

covNext:
	ADDQ R10, SI
	ADDQ R10, R13
	DECQ CX
	JMP  covLoop

covStore:
	VMASKMOVPD Y0, Y8, 0(DX)
	VMASKMOVPD Y1, Y9, 32(DX)
	VMASKMOVPD Y2, Y10, 64(DX)
	VMASKMOVPD Y3, Y11, 96(DX)
	VZEROUPPER
	RET
