package sdtw

import "sync/atomic"

// CoarseScorer is the cascade's coarse-tier entry point: one decimated
// query scored against a whole panel of decimated references with the
// packed 16-bit kernel. The panel is a shared read-only CoarseLanes; the
// scorer holds the scratch. Score is the scalar path, one reference at a
// time: scoring is single-shot ranking, not streaming — every Score call
// starts from the boundary row — so one scratch Row16 sized to the longest
// reference serves the entire panel: each call takes a prefix view of it,
// clears that prefix, and runs Extend16 over it. ScoreGroup scores a
// whole lane group with the vector strip (lanes.go) where it applies,
// with the same results. The scratch reuse is what keeps a 1,000-target
// coarse pass allocation-free after construction.
//
// A CoarseScorer is not safe for concurrent use (the scratch is shared
// across calls); callers that fan scoring across workers pool one scorer
// per worker, all over one CoarseLanes.
type CoarseScorer struct {
	lanes   *CoarseLanes
	scratch *Row16
	// cost and run are the strip's lane state, column-major like
	// laneGroup.ref; res holds one group's results.
	cost, run []int16
	res       [laneWidth]IntResult
}

// NewCoarseScorer builds a scorer over the decimated reference panel: a
// CoarseLanes of its own plus one scorer's scratch. Every reference must
// be non-empty.
func NewCoarseScorer(refs [][]int8, cfg IntConfig) (*CoarseScorer, error) {
	cl, err := NewCoarseLanes(refs, cfg)
	if err != nil {
		return nil, err
	}
	return cl.NewScorer(), nil
}

// NumRefs returns the panel size.
func (cs *CoarseScorer) NumRefs() int { return len(cs.lanes.refs) }

// RefLen returns the length of decimated reference i.
func (cs *CoarseScorer) RefLen(i int) int { return len(cs.ref(i)) }

// ref fetches panel entry i behind a single unsigned guard the prove pass
// can see, keeping coarse.go inside the bounds-check audit
// (scripts/check_bce.sh) alongside the sweep strips.
func (cs *CoarseScorer) ref(i int) []int8 {
	refs := cs.lanes.refs
	if uint(i) >= uint(len(refs)) {
		panic("sdtw: coarse reference index out of range")
	}
	return refs[i]
}

// Score runs a complete single-shot subsequence alignment of query against
// reference i and returns the best end cost — identical to
// IntDP16(query, refs[i], cfg) but reusing the scratch row.
func (cs *CoarseScorer) Score(query []int8, i int) IntResult {
	ref := cs.ref(i)
	m := len(ref)
	view := Row16{Cost: cs.scratch.Cost[:m], Run: cs.scratch.Run[:m]}
	clear(view.Cost)
	clear(view.Run)
	return Extend16(&view, query, ref, cs.lanes.cfg)
}

// BoundedResult is ScoreBounded's result: Score's IntResult plus the
// query samples scored.
//
// Deprecated: the coarse tier no longer abandons references early, so
// Pruned is always false and Samples always len(query). Use Score.
type BoundedResult struct {
	IntResult
	Pruned  bool
	Samples int
}

// ScoreBounded is Score with the result wrapped as a BoundedResult; cut
// is ignored.
//
// Deprecated: the coarse tier scores every reference exhaustively. Use
// Score.
func (cs *CoarseScorer) ScoreBounded(query []int8, i int, cut *atomic.Int64) BoundedResult {
	return BoundedResult{IntResult: cs.Score(query, i), Samples: len(query)}
}
