//go:build !amd64 || purego

package sdtw

// Without the AVX2 strip haveAVX2 is the constant false, so
// CoarseLanes.Strip admits no group and ScoreGroup scores every reference
// with the scalar Score.
func laneSweep(cost, run, ref []int16, lens *[laneWidth]int16, query []int8, bonus, cap_ int32) (best, pos [laneWidth]int16) {
	panic("sdtw: lane strip called on a build without it")
}
