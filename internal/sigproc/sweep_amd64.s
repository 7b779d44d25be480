#include "textflag.h"

// AVX2+FMA lag-sweep kernel (see sweep.go for the contract). Layout per
// slot: four FMA accumulators — re = Σ ar·br, re' = Σ ai·bi, im = Σ ar·bi,
// im' = −Σ ai·br — combined and reduced pairwise after the tone loop, then
// |re|²+|im|² added into the float64 out slot. Tails shorter than a vector
// are loaded through VMASKMOV with a mask from the static table below, so
// the kernel never reads past tones elements.

// Masked-tail load table: at offset (4-r)*8 it yields a 4-lane qword mask
// with the first r lanes set.
GLOBL maskTab64<>(SB), RODATA, $64
DATA maskTab64<>+0(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA maskTab64<>+8(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA maskTab64<>+16(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA maskTab64<>+24(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA maskTab64<>+32(SB)/8, $0x0000000000000000
DATA maskTab64<>+40(SB)/8, $0x0000000000000000
DATA maskTab64<>+48(SB)/8, $0x0000000000000000
DATA maskTab64<>+56(SB)/8, $0x0000000000000000

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
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

// func dotSqSweepAVX2(out, ar, ai, br, bi *float64, tones, count, stride int)
// out[k] += |<a, b_k>|² for k in [0, count); b_k starts at (br, bi) plus
// k*stride elements (stride may be negative).
TEXT ·dotSqSweepAVX2(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ ar+8(FP), SI
	MOVQ ai+16(FP), BX
	MOVQ br+24(FP), R8
	MOVQ bi+32(FP), R9
	MOVQ tones+40(FP), R11
	MOVQ count+48(FP), R12
	MOVQ stride+56(FP), R13
	SHLQ $3, R13             // element stride -> byte stride
	TESTQ R12, R12
	JE   sweepDone

	// Tail mask for r = tones & 3 (loaded even when r == 0; unused then).
	MOVQ R11, CX
	ANDQ $3, CX
	MOVQ $4, DX
	SUBQ CX, DX
	LEAQ maskTab64<>(SB), R10
	VMOVUPD (R10)(DX*8), Y8
	MOVQ R11, DX
	ANDQ $-4, DX             // tones rounded down to whole vectors

sweepSlot:
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX
	CMPQ AX, DX
	JGE  sweepTail

sweepLoop4:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (BX)(AX*8), Y1
	VMOVUPD (R8)(AX*8), Y2
	VMOVUPD (R9)(AX*8), Y3
	VFMADD231PD Y2, Y0, Y4   // re  += ar*br
	VFMADD231PD Y3, Y1, Y5   // re' += ai*bi
	VFMADD231PD Y3, Y0, Y6   // im  += ar*bi
	VFNMADD231PD Y2, Y1, Y7  // im' -= ai*br
	ADDQ $4, AX
	CMPQ AX, DX
	JLT  sweepLoop4

sweepTail:
	TESTQ CX, CX
	JE   sweepReduce
	VMASKMOVPD (SI)(AX*8), Y8, Y0
	VMASKMOVPD (BX)(AX*8), Y8, Y1
	VMASKMOVPD (R8)(AX*8), Y8, Y2
	VMASKMOVPD (R9)(AX*8), Y8, Y3
	VFMADD231PD Y2, Y0, Y4
	VFMADD231PD Y3, Y1, Y5
	VFMADD231PD Y3, Y0, Y6
	VFNMADD231PD Y2, Y1, Y7

sweepReduce:
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VEXTRACTF128 $1, Y4, X1
	VADDPD X1, X4, X4
	VHADDPD X4, X4, X4       // re scalar
	VEXTRACTF128 $1, Y6, X2
	VADDPD X2, X6, X6
	VHADDPD X6, X6, X6       // im scalar
	VMULSD X4, X4, X4
	VFMADD231SD X6, X6, X4   // re² + im²
	VADDSD (DI), X4, X4
	MOVSD X4, (DI)
	ADDQ $8, DI
	ADDQ R13, R8
	ADDQ R13, R9
	DECQ R12
	JNE  sweepSlot

sweepDone:
	VZEROUPPER
	RET
