//go:build amd64 && !purego

#include "textflag.h"

// func laneStrip16(cost, run, ref *int16, lens *[16]int16, query *int8, best, pos *[16]int16, cols, n int, bonus, cap_, one int32)
//
// Scores n query samples against one lane group: sixteen references side
// by side, column j of lane k at index j*16+k of cost, run and ref (int16
// each, cols columns). cost and run hold the boundary row on entry (all
// zero) and the last row on return. Each query sample is one row: column
// 0 takes the vertical move alone, and every later column j combines its
// own old state (vertical) with column j-1's old state (diagonal), which
// is the previous step's vertical vector still in registers. After the
// last row, best and pos receive each lane's minimum cost over its
// columns j < lens[k] and the earliest column reaching it.
//
// All arithmetic is plain int16 except the cell add, VPADDSW, whose
// saturation at MaxInt16 is the scalar store clamp; the caller's floor
// guard keeps every value above MinInt16 (lanes.go).
//
// Register map:
//	SI cost, DI run, DX ref, R8 row bytes (cols*32), R9 query, R10 rows left
//	BX column byte offset
//	Y0 q, Y1 bonus, Y2 cap_, Y3 one, Y4 words of 1
//	Y5 diagonal cost, Y6 diagonal run (old column j-1)
//	Y7 vertical cost, Y8 vertical run (old column j)
//	Y9..Y12 temporaries
TEXT ·laneStrip16(SB), NOSPLIT, $0-84
	MOVQ cost+0(FP), SI
	MOVQ run+8(FP), DI
	MOVQ ref+16(FP), DX
	MOVQ query+32(FP), R9
	MOVQ cols+56(FP), R8
	SHLQ $5, R8
	MOVQ n+64(FP), R10

	// Broadcasts go through a general register and VMOVD, as in
	// sweep_amd64.s: the strip is VEX-only, the per-row query broadcast
	// below included, and exits through VZEROUPPER.
	MOVL bonus+72(FP), AX
	VMOVD AX, X1
	VPBROADCASTW X1, Y1
	MOVL cap_+76(FP), AX
	VMOVD AX, X2
	VPBROADCASTW X2, Y2
	MOVL one+80(FP), AX
	VMOVD AX, X3
	VPBROADCASTW X3, Y3
	MOVL $1, AX
	VMOVD AX, X4
	VPBROADCASTW X4, Y4

	TESTQ R10, R10
	JZ    final

row:
	MOVBQSX (R9), AX
	VMOVD   AX, X0
	VPBROADCASTW X0, Y0

	// Column 0: vertical move only, run = min(run+1, cap_).
	VMOVDQU (SI), Y7
	VMOVDQU (DI), Y8
	VMOVDQU (DX), Y9
	VPSUBW  Y9, Y0, Y9
	VPABSW  Y9, Y9
	VPADDSW Y9, Y7, Y10
	VPADDW  Y4, Y8, Y11
	VPMINSW Y2, Y11, Y11
	VMOVDQU Y10, (SI)
	VMOVDQU Y11, (DI)
	MOVQ    $32, BX
	CMPQ    BX, R8
	JAE     rowdone

col:
	// The old column j-1 becomes the diagonal operand of column j.
	VMOVDQU Y7, Y5
	VMOVDQU Y8, Y6
	VMOVDQU (SI)(BX*1), Y7
	VMOVDQU (DI)(BX*1), Y8

	// d = |q - ref[j]|
	VMOVDQU (DX)(BX*1), Y9
	VPSUBW  Y9, Y0, Y9
	VPABSW  Y9, Y9

	// diag = diagCost - bonus*diagRun
	VPMULLW Y6, Y1, Y10
	VPSUBW  Y10, Y5, Y10

	// nr = min(run[j]+1, cap_)
	VPADDW  Y4, Y8, Y11
	VPMINSW Y2, Y11, Y11

	// vertical wins only where diag > cost[j]; ties take the diagonal.
	VPCMPGTW  Y7, Y10, Y12
	VPBLENDVB Y12, Y11, Y3, Y11
	VPMINSW   Y7, Y10, Y10
	VPADDSW   Y9, Y10, Y10

	VMOVDQU Y10, (SI)(BX*1)
	VMOVDQU Y11, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, R8
	JB      col

rowdone:
	INCQ R9
	DECQ R10
	JNZ  row

final:
	// Last-row minimum per lane: column 0 first, then strictly smaller
	// costs at columns below the lane's length, so ties keep the
	// earliest column and padding never wins.
	MOVQ    lens+24(FP), AX
	VMOVDQU (AX), Y7
	VMOVDQU (SI), Y5
	VPXOR   Y6, Y6, Y6
	VPXOR   Y8, Y8, Y8
	MOVQ    $32, BX
	CMPQ    BX, R8
	JAE     done

scan:
	VPADDW    Y4, Y8, Y8
	VMOVDQU   (SI)(BX*1), Y9
	VPCMPGTW  Y8, Y7, Y10
	VPCMPGTW  Y9, Y5, Y11
	VPAND     Y10, Y11, Y11
	VPBLENDVB Y11, Y9, Y5, Y5
	VPBLENDVB Y11, Y8, Y6, Y6
	ADDQ      $32, BX
	CMPQ      BX, R8
	JB        scan

done:
	MOVQ    best+40(FP), AX
	VMOVDQU Y5, (AX)
	MOVQ    pos+48(FP), AX
	VMOVDQU Y6, (AX)
	VZEROUPPER
	RET
