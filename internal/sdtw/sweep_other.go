//go:build !amd64 || purego

package sdtw

// Without the AVX2 strip (a non-amd64 build, or -tags purego) every row
// runs the scalar sweep.

const haveAVX2 = false

func sweepRowDispatch(cost, run []int32, ref []int8, q, diagCost, diagRun, bonus, cap_, one int32) {
	sweepRow(cost, run, ref, q, diagCost, diagRun, bonus, cap_, one)
}
