//go:build amd64 && !purego

package sdtw

// The AVX2 strip under sweepRow (sweep_amd64.s). A 32-bit row has no
// intra-row dependence, so 8 consecutive reference columns are updated
// per step with the same wrapping int32 arithmetic the scalar sweep uses:
// the result is bit-identical by construction, and sweepRow stays as the
// fallback and the test oracle. Build with -tags purego to compile the
// scalar path alone.

// haveAVX2 is decided once per process: the CPU reports AVX2 and the OS
// saves the YMM registers across context switches (OSXSAVE set and XCR0
// enabling both the XMM and YMM state).
var haveAVX2 = detectAVX2()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

//go:noescape
func sweepStrip8(cost, run *int32, ref *int8, blocks int, q, bonus, cap_, one int32) (lastCost, lastRun int32)

// stripMinLen is the shortest row the vector strip is entered for: column
// 0 (the caller's), the column-1 seam, and at least two 8-column blocks.
// The strip's VEX-only entry is cheap: an 18-column row takes 33–37 ns
// on the strip against 77–101 ns scalar, and one block would win too.
// Rows that short arise only as a narrow shard's tail, so the bound is
// not tuned (EXPERIMENTS.md "VEX-clean strip entry").
const stripMinLen = 2 + 16

// sweepRowDispatch is sweepRow on the fastest path this CPU supports. The
// strip covers whole 8-column blocks from column 2; column 1 — whose
// diagonal operand is the caller's column-0 state rather than a memory
// cell — is computed before the strip and stored after it, once the strip
// has read its old value as block 0's diagonal. The scalar sweepRow
// finishes the last m-2 mod 8 columns from the old cost and run of the
// strip's last column.
func sweepRowDispatch(cost, run []int32, ref []int8, q, diagCost, diagRun, bonus, cap_, one int32) {
	m := len(cost)
	if !haveAVX2 || m < stripMinLen || len(run) < m || len(ref) < m {
		sweepRow(cost, run, ref, q, diagCost, diagRun, bonus, cap_, one)
		return
	}
	d := q - int32(ref[1])
	if d < 0 {
		d = -d
	}
	diag := diagCost - bonus*diagRun
	c1, r1 := cost[1], run[1]+1
	if r1 > cap_ {
		r1 = cap_
	}
	if diag <= c1 {
		c1, r1 = diag, one
	}
	c1 += d

	blocks := (m - 2) / 8
	end := 2 + 8*blocks
	diagCost, diagRun = sweepStrip8(&cost[2], &run[2], &ref[2], blocks, q, bonus, cap_, one)
	cost[1], run[1] = c1, r1
	sweepRow(cost[end-1:m], run[end-1:m], ref[end-1:m], q, diagCost, diagRun, bonus, cap_, one)
}
