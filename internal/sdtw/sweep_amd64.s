//go:build amd64 && !purego

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

// func sweepStrip8(cost, run *int32, ref *int8, blocks int, q, bonus, cap_, one int32) (lastCost, lastRun int32)
//
// Advances blocks*8 (blocks >= 1) consecutive columns j of one 32-bit
// row in place, 8 columns per step. The diagonal operand of column j is
// the OLD cost[j-1]/run[j-1], so the shifted operand of the next block
// (cost[j+7..j+14]) is loaded before the current block is stored; the
// first block's is read from cost[-1..6], which the caller has left
// unwritten. Returns the old cost/run of the last column swept — the
// diagonal operand of the column after the strip.
//
// Register map:
//	SI cost, DI run, DX ref, CX blocks remaining
//	Y0 q, Y1 bonus, Y2 cap_, Y3 one, Y4 literal 1
//	Y5 diagonal cost, Y6 diagonal run (old columns j-1..j+6)
//	Y7 vertical cost, Y8 vertical run (old columns j..j+7)
//	Y9..Y12 temporaries
TEXT ·sweepStrip8(SB), NOSPLIT, $0-56
	MOVQ cost+0(FP), SI
	MOVQ run+8(FP), DI
	MOVQ ref+16(FP), DX
	MOVQ blocks+24(FP), CX

	// Broadcasts go through a general register: asmdecl checks a frame
	// operand's width against the instruction, and VPBROADCASTD from
	// memory with a Y destination reads as a 32-byte access. Every
	// instruction here is VEX-encoded (VMOVD, never MOVD): a legacy-SSE
	// write to an X register while the upper YMM halves are dirty costs
	// an SSE/AVX transition on every call. The one exit is VZEROUPPER.
	MOVL q+32(FP), AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y0
	MOVL bonus+36(FP), AX
	VMOVD AX, X1
	VPBROADCASTD X1, Y1
	MOVL cap_+40(FP), AX
	VMOVD AX, X2
	VPBROADCASTD X2, Y2
	MOVL one+44(FP), AX
	VMOVD AX, X3
	VPBROADCASTD X3, Y3
	MOVL $1, AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4

	VMOVDQU -4(SI), Y5
	VMOVDQU -4(DI), Y6

loop:
	VMOVDQU (SI), Y7
	VMOVDQU (DI), Y8

	// d = |q - ref[j]|
	VPMOVSXBD (DX), Y9
	VPSUBD    Y9, Y0, Y9
	VPABSD    Y9, Y9

	// diag = diagCost - bonus*diagRun (wrapping, as in Go)
	VPMULLD Y6, Y1, Y10
	VPSUBD  Y10, Y5, Y10

	// nr = min(run[j]+1, cap_)
	VPADDD  Y4, Y8, Y11
	VPMINSD Y2, Y11, Y11

	// vertical wins only where diag > cost[j]; ties take the diagonal.
	VPCMPGTD  Y7, Y10, Y12
	VPBLENDVB Y12, Y11, Y3, Y11
	VPMINSD   Y7, Y10, Y10
	VPADDD    Y9, Y10, Y10

	DECQ CX
	JZ   last

	// Next block's shifted operand, read before this block's store
	// overwrites cost[j+7].
	VMOVDQU 28(SI), Y5
	VMOVDQU 28(DI), Y6
	VMOVDQU Y10, (SI)
	VMOVDQU Y11, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $8, DX
	JMP     loop

last:
	VMOVDQU Y10, (SI)
	VMOVDQU Y11, (DI)
	VEXTRACTI128 $1, Y7, X7
	VEXTRACTI128 $1, Y8, X8
	VPEXTRD      $3, X7, AX
	VPEXTRD      $3, X8, BX
	MOVL         AX, lastCost+48(FP)
	MOVL         BX, lastRun+52(FP)
	VZEROUPPER
	RET
