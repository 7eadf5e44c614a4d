#include "textflag.h"

// func gfMulSliceAVX2(tab *[32]byte, dst, src []byte)
//
// dst[i] ^= c * src[i] by split nibbles (Plank, Greenan and Miller, FAST '13):
// tab[0:16] holds c*x and tab[16:32] c*(x<<4) for x in 0..15, so one VPSHUFB
// per nibble looks up 32 products at once. len(src) must be a nonzero
// multiple of 32 and len(dst) at least that; nothing past len(src) is touched.
TEXT ·gfMulSliceAVX2(SB), NOSPLIT, $0-56
	MOVQ tab+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX

	VBROADCASTI128 (AX), Y0   // low-nibble products, both lanes
	VBROADCASTI128 16(AX), Y1 // high-nibble products, both lanes
	MOVQ $0x0f, BX
	MOVQ BX, X2
	VPBROADCASTB X2, Y2       // nibble mask

	// An odd 32-byte block first, so the loop below runs whole 64-byte steps.
	TESTQ $32, CX
	JZ    pairs
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

pairs:
	SHRQ $6, CX
	JZ   done

loop:
	VMOVDQU (SI), Y3
	VMOVDQU 32(SI), Y5
	VPSRLQ  $4, Y3, Y4
	VPSRLQ  $4, Y5, Y6
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPAND   Y2, Y5, Y5
	VPAND   Y2, Y6, Y6
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPSHUFB Y5, Y0, Y5
	VPSHUFB Y6, Y1, Y6
	VPXOR   Y3, Y4, Y3
	VPXOR   Y5, Y6, Y5
	VPXOR   (DI), Y3, Y3
	VPXOR   32(DI), Y5, Y5
	VMOVDQU Y3, (DI)
	VMOVDQU Y5, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET

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
