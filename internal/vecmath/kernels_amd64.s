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
