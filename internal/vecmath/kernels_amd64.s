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
