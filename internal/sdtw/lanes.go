package sdtw

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// The lane-group coarse kernel: the coarse panel transposed so one AVX2
// step advances column j of sixteen references at once. The references
// are sorted by length and cut into groups of laneWidth; each group is
// stored column-major as int16 lanes, lane k of column j at
// ref[j*laneWidth+k], shorter lanes zero-padded to the group's longest.
// A strip step loads one column vector of costs and runs and advances all
// sixteen cells against one broadcast query sample. The recurrence reads
// only the previous row's column j (vertical) and column j-1 (diagonal),
// so the diagonal operand is the previous column's vector, already in a
// register: the strip has no shifted reload, no seam between blocks and
// no scalar tail. Padding columns only ever feed columns to their right,
// which are padding too, so they cannot reach a real cell; they are
// masked out once, when the last row's minimum is taken.
//
// The strip computes in plain int16 lanes. The floor guard (laneGuard)
// admits a query only when that arithmetic is exact: then no cell and no
// bonus·run product can reach sat16Min, the one saturating add is
// VPADDSW, whose clamp at MaxInt16 is sat16's, and every cost, run and
// end position matches Score bit for bit (DESIGN.md §13). A query the
// guard rejects, a group too long for int16 end positions, and every
// group on a build without the strip are scored reference by reference
// with the scalar Score, which also stays the test oracle.

// laneWidth is the number of references one strip step advances: sixteen
// int16 lanes fill one 256-bit vector.
const laneWidth = 16

// laneMaxCols is the longest lane group the strip takes: end positions and
// the padding mask's column counter travel as int16 lanes.
const laneMaxCols = math.MaxInt16

// CoarseLanes is a decimated reference panel laid out for the lane-group
// kernel: built and validated once, then shared read-only by every
// scorer NewScorer makes.
type CoarseLanes struct {
	refs        [][]int8
	cfg         IntConfig
	bonus, cap_ int32 // bonusTerms16(cfg)
	// order lists the panel indices sorted by reference length (ties by
	// index), laneWidth per group.
	order  []int
	groups []laneGroup
	// cols is the longest group the strip takes, sizing each scorer's
	// lane state; longest is the longest reference, sizing its scalar
	// row.
	cols, longest int
}

// laneGroup is up to laneWidth references transposed into int16 lanes.
type laneGroup struct {
	lanes int   // references in the group; only the last group is short
	cols  int   // longest lane, the strip's row length
	cells int64 // DP cells per query sample: the lanes' summed lengths
	// ref is the column-major transposed reference, cols*laneWidth
	// entries; nil when cols exceeds laneMaxCols.
	ref  []int16
	lens [laneWidth]int16 // per-lane reference length; 0 for empty lanes
}

// NewCoarseLanes sorts the decimated reference panel by length and
// transposes each group of laneWidth into int16 lanes. Every reference
// must be non-empty.
func NewCoarseLanes(refs [][]int8, cfg IntConfig) (*CoarseLanes, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("sdtw: coarse scorer needs at least one reference")
	}
	for i, r := range refs {
		if len(r) == 0 {
			return nil, fmt.Errorf("sdtw: coarse reference %d is empty", i)
		}
	}
	cl := &CoarseLanes{refs: refs, cfg: cfg, order: make([]int, len(refs))}
	cl.bonus, cl.cap_ = bonusTerms16(cfg)
	for i := range cl.order {
		cl.order[i] = i
	}
	slices.SortStableFunc(cl.order, func(a, b int) int { return cmp.Compare(len(refs[a]), len(refs[b])) })
	for first := 0; first < len(cl.order); first += laneWidth {
		lanes := cl.order[first:min(first+laneWidth, len(cl.order))]
		g := laneGroup{lanes: len(lanes), cols: len(refs[lanes[len(lanes)-1]])}
		for _, i := range lanes {
			g.cells += int64(len(refs[i]))
		}
		if g.cols <= laneMaxCols {
			g.ref = make([]int16, g.cols*laneWidth)
			for k, i := range lanes {
				g.lens[k] = int16(len(refs[i]))
				for j, v := range refs[i] {
					g.ref[j*laneWidth+k] = int16(v)
				}
			}
			cl.cols = max(cl.cols, g.cols)
		}
		cl.longest = max(cl.longest, g.cols)
		cl.groups = append(cl.groups, g)
	}
	return cl, nil
}

// NewScorer returns a scorer over the shared panel with its own scratch:
// the lane state for the strip and a row for the scalar Score. It cannot
// fail; the panel was validated when it was built.
func (cl *CoarseLanes) NewScorer() *CoarseScorer {
	return &CoarseScorer{
		lanes:   cl,
		scratch: NewRow16(cl.longest),
		cost:    make([]int16, cl.cols*laneWidth),
		run:     make([]int16, cl.cols*laneWidth),
	}
}

// NumGroups returns the number of lane groups, ceil(panel size / 16).
func (cl *CoarseLanes) NumGroups() int { return len(cl.groups) }

// members returns group g's panel indices in lane order.
func (cl *CoarseLanes) members(g int) []int { return cl.order[g*laneWidth:][:cl.groups[g].lanes] }

// GroupCells returns the DP cells one query sample costs against group g:
// the summed lengths of its references, padding excluded.
func (cl *CoarseLanes) GroupCells(g int) int64 { return cl.groups[g].cells }

// Strip reports whether scoring a query of qlen samples against group g
// runs the vector strip in this process; otherwise every reference of the
// group is scored with the scalar Score.
func (cl *CoarseLanes) Strip(g, qlen int) bool {
	return haveAVX2 && cl.groups[g].ref != nil && cl.laneGuard(qlen)
}

// laneGuard is the floor guard: it admits a query of n samples when the
// strip's plain int16 arithmetic is exact. With 0 <= bonus <= MaxInt16,
// cap >= 0 and n·bonus·cap <= MaxInt16, a cost after t rows is at least
// -t·bonus·cap >= -MaxInt16 (each row subtracts at most one bonus·cap),
// so neither a cell nor a diagonal operand reaches sat16Min, and every
// bonus·run product fits int16.
func (cl *CoarseLanes) laneGuard(n int) bool {
	b, c := int64(cl.bonus), int64(cl.cap_)
	if b < 0 || b > math.MaxInt16 || c < 0 {
		return false
	}
	return b*c == 0 || int64(n) <= math.MaxInt16/(b*c)
}

// CoarseSweep names the kernel the coarse tier's lane groups run on in
// this process: "int16x16/avx2" where the CPU and OS support the lane
// strip, otherwise "int16/scalar" (each reference scored with Score).
// Queries the floor guard rejects take the scalar path either way.
func CoarseSweep() string {
	if haveAVX2 {
		return "int16x16/avx2"
	}
	return "int16/scalar"
}

// ScoreGroup scores query against every reference of lane group g and
// stores each one's cost in costs at its panel index: costs[i] =
// Score(query, i).Cost for each reference i of the group. costs must span
// the panel.
func (cs *CoarseScorer) ScoreGroup(query []int8, g int, costs []int32) {
	lanes := cs.lanes.members(g)
	for k, r := range cs.scoreGroup(query, g) {
		costs[lanes[k]] = r.Cost
	}
}

// scoreGroup returns group g's results in lane order, each identical to
// Score(query, i) for the lane's reference i.
func (cs *CoarseScorer) scoreGroup(query []int8, g int) []IntResult {
	cl := cs.lanes
	grp := &cl.groups[g]
	out := cs.res[:grp.lanes]
	if !cl.Strip(g, len(query)) {
		for k, i := range cl.members(g) {
			out[k] = cs.Score(query, i)
		}
		return out
	}
	n := grp.cols * laneWidth
	cost, run := cs.cost[:n], cs.run[:n]
	clear(cost)
	clear(run)
	best, pos := laneSweep(cost, run, grp.ref, &grp.lens, query, cl.bonus, cl.cap_)
	for k := range out {
		out[k] = IntResult{Cost: int32(best[k]), EndPos: int(pos[k])}
	}
	return out
}
