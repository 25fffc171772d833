//go:build amd64 && !purego

package sdtw

import "unsafe"

// The AVX2 lane strip under CoarseScorer.ScoreGroup (lanes_amd64.s).

//go:noescape
func laneStrip16(cost, run, ref *int16, lens *[laneWidth]int16, query *int8, best, pos *[laneWidth]int16, cols, n int, bonus, cap_, one int32)

// laneSweep scores query against one lane group from the boundary state
// in cost and run (zeroed, cols*laneWidth entries each, like ref) and
// returns each lane's last-row minimum and its earliest column. The
// caller has checked CoarseLanes.Strip: the floor guard holds, so the
// strip's int16 arithmetic is exact, and cols fits int16.
func laneSweep(cost, run, ref []int16, lens *[laneWidth]int16, query []int8, bonus, cap_ int32) (best, pos [laneWidth]int16) {
	cols := len(ref) / laneWidth
	if cols == 0 || len(ref) != cols*laneWidth || len(cost) != len(ref) || len(run) != len(ref) {
		panic("sdtw: lane state does not match the lane group")
	}
	one := boolToInt32(cap_ > 0)
	laneStrip16(unsafe.SliceData(cost), unsafe.SliceData(run), unsafe.SliceData(ref), lens,
		unsafe.SliceData(query), &best, &pos, cols, len(query), bonus, cap_, one)
	return best, pos
}
