package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"squigglefilter"
	"squigglefilter/internal/engine"
	"squigglefilter/internal/normalize"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/squiggle"
)

// The replay runs reads the engine already decided back through the
// layers' public functions, one timed call at a time, in the order the
// engine makes them: per dwell hypothesis, decimate the coarse prefix,
// normalize it and score every target under a running top-k cut; then, per
// survivor, normalize the exact stage window and extend the exact DP row.
// Its survivors, exact costs and exact cells must equal the engine's, and
// its coarse cells must match within coarseCellTolerance, or the per-layer
// numbers would describe a different program. The replay runs on one
// locked OS thread and its spans are timed in that thread's CPU time.

// exactStage is the exact tier's stage window: DetectorConfig's default
// single 2,000-sample stage, which every workload's detectors use.
const exactStage = 2000

// coarseCellTolerance bounds |replay - engine| / engine coarse cells for
// one read. The engine scores targets on several goroutines, so the order
// in which completed costs tighten the shared cut, and with it where the
// bound abandons a scoring, varies from run to run; the single-goroutine
// replay is one such order. The deviation comes in whole rows of a few
// abandoned scorings: the largest measured per read was 1.6e-4 on the
// 1,000-target panel and 1.7e-4 (two rows) on the test's 40-target one.
const coarseCellTolerance = 1e-3

// replayed is what the layer calls computed for one read.
type replayed struct {
	survivors      []int
	costs          []int32 // exact cost per survivor
	used           []int   // exact stage window per survivor
	exactCells     int64
	coarseCells    int64
	coarsePruned   int64
	coarseScorings int64
}

type replayer struct {
	tr     *tracer
	exact  [][]int8 // exact-tier reference per target
	kern   squigglefilter.Kernel
	icfg   sdtw.IntConfig
	coarse *coarseTier // nil: a single target with no coarse tier
	xq     []int8
	rows   map[int]*sdtw.Row
	rows16 map[int]*sdtw.Row16
}

// replay runs one read through the layers and returns what they computed
// and the CPU time spent inside them.
func (r *replayer) replay(read int, samples []int16) (replayed, time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r.tr.threadCPU = true
	defer func() { r.tr.threadCPU = false }()
	root := r.tr.begin(spanReplay, -1, read)
	first := len(r.tr.spans)
	var rp replayed
	if r.coarse != nil {
		rp.survivors = r.coarse.score(r.tr, root, read, samples, &rp)
	} else {
		rp.survivors = []int{0}
	}
	w := min(len(samples), exactStage)
	for _, i := range rp.survivors {
		sp := r.tr.begin(spanNormalize, root, read)
		r.xq = normalize.ApplyInt8Into(r.xq, samples[:w])
		r.tr.end(sp)
		res := r.extend(root, read, r.exact[i], r.xq)
		rp.costs = append(rp.costs, res.Cost)
		rp.used = append(rp.used, w)
		rp.exactCells += int64(w) * int64(len(r.exact[i]))
	}
	r.tr.end(root)
	var busy time.Duration
	for _, s := range r.tr.spans[first:] {
		busy += time.Duration(s.cpu)
	}
	return rp, busy
}

// extend runs the detector's kernel from a boundary row, as a fresh
// session does.
func (r *replayer) extend(root int32, read int, ref, q []int8) sdtw.IntResult {
	if r.kern == squigglefilter.KernelInt16 {
		if r.rows16 == nil {
			r.rows16 = make(map[int]*sdtw.Row16)
		}
		row := r.rows16[len(ref)]
		if row == nil {
			row = sdtw.NewRow16(len(ref))
			r.rows16[len(ref)] = row
		}
		row.Reset()
		sp := r.tr.begin(spanExact, root, read)
		res := sdtw.Extend16(row, q, ref, r.icfg)
		r.tr.end(sp)
		return res
	}
	if r.rows == nil {
		r.rows = make(map[int]*sdtw.Row)
	}
	row := r.rows[len(ref)]
	if row == nil {
		row = sdtw.NewRow(len(ref))
		r.rows[len(ref)] = row
	}
	row.Reset()
	sp := r.tr.begin(spanExact, root, read)
	res := sdtw.Extend(row, q, ref, r.icfg)
	r.tr.end(sp)
	return res
}

// divergence names the first way the replay differs from the engine's
// outcome for the same read, or returns "".
func divergence(o *outcome, rp *replayed) string {
	switch {
	case !slices.Equal(o.survivors, rp.survivors):
		return fmt.Sprintf("survivors %v, replay %v", o.survivors, rp.survivors)
	case !slices.Equal(o.costs, rp.costs) || !slices.Equal(o.used, rp.used):
		return fmt.Sprintf("exact costs %v over %v samples, replay %v over %v", o.costs, o.used, rp.costs, rp.used)
	case o.exactCells != rp.exactCells:
		return fmt.Sprintf("exact cells %d, replay %d", o.exactCells, rp.exactCells)
	case o.coarseScorings != rp.coarseScorings:
		return fmt.Sprintf("coarse scorings %d, replay %d", o.coarseScorings, rp.coarseScorings)
	case math.Abs(float64(rp.coarseCells-o.coarseCells)) > coarseCellTolerance*float64(o.coarseCells):
		return fmt.Sprintf("coarse cells %d, replay %d", o.coarseCells, rp.coarseCells)
	}
	return ""
}

// coarseTier replays the cascade's coarse pass.
type coarseTier struct {
	scorer *sdtw.CoarseScorer
	// order scores the shortest decimated reference first, ties by index,
	// as the engine does so the cut tightens early.
	order []int
	// factors are the raw samples per coarse query sample, one per dwell
	// hypothesis.
	factors []int
	topK    int
	margin  int64
	prefix  int
	eq      []int16
	q       []int8
	costs   []int32
	sel     []int32
	keep    []bool
	best    []int32 // the k best costs of the current hypothesis, ascending
	cut     atomic.Int64
}

func newCoarseTier(refs [][]int8, cc squigglefilter.CascadeConfig) (*coarseTier, error) {
	scorer, err := sdtw.NewCoarseScorer(refs, sdtw.DefaultIntConfig())
	if err != nil {
		return nil, err
	}
	order := make([]int, len(refs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(refs[order[a]]) < len(refs[order[b]]) })
	// The engine's dwell hypotheses: its default query dwell and two
	// samples per base either side.
	var factors []int
	for _, dw := range []int{engine.DefaultQueryDwell - 2, engine.DefaultQueryDwell, engine.DefaultQueryDwell + 2} {
		factors = append(factors, cc.Decimation*dw)
	}
	return &coarseTier{
		scorer:  scorer,
		order:   order,
		factors: factors,
		topK:    cc.TopK,
		margin:  int64(cc.Margin),
		prefix:  cc.CoarsePrefix,
		costs:   make([]int32, len(refs)),
		keep:    make([]bool, len(refs)),
	}, nil
}

// score runs every dwell hypothesis over every target and returns the
// union of the hypotheses' survivors in ascending target order.
func (c *coarseTier) score(tr *tracer, root int32, read int, samples []int16, rp *replayed) []int {
	n := len(c.order)
	var surv []int
	if c.topK >= n || len(samples) == 0 {
		for i := range n {
			surv = append(surv, i)
		}
		return surv
	}
	prefix := samples[:min(len(samples), c.prefix)]
	clear(c.keep)
	for _, f := range c.factors {
		sp := tr.begin(spanDecimate, root, read)
		c.eq = squiggle.DecimateInt16Into(c.eq, prefix, f)
		tr.end(sp)
		sp = tr.begin(spanNormalize, root, read)
		c.q = normalize.ApplyInt8Into(c.q, c.eq)
		tr.end(sp)
		margin := c.margin * int64(len(c.q))
		c.best = c.best[:0]
		c.cut.Store(math.MaxInt64)
		for _, i := range c.order {
			sp := tr.begin(spanCoarse, root, read)
			r := c.scorer.ScoreBounded(c.q, i, &c.cut)
			tr.end(sp)
			rp.coarseCells += int64(r.Samples) * int64(c.scorer.RefLen(i))
			if r.Pruned {
				rp.coarsePruned++
				c.costs[i] = math.MaxInt32
				continue
			}
			c.costs[i] = r.Cost
			c.offer(r.Cost, margin)
		}
		rp.coarseScorings += int64(n)
		c.sel = append(c.sel[:0], c.costs...)
		slices.Sort(c.sel)
		cut := int64(c.sel[c.topK-1]) + margin
		for i, cost := range c.costs {
			if int64(cost) <= cut {
				c.keep[i] = true
			}
		}
	}
	for i, k := range c.keep {
		if k {
			surv = append(surv, i)
		}
	}
	return surv
}

// offer records a completed cost; once k costs are in, the published cut
// is the k-th best plus the margin.
func (c *coarseTier) offer(cost int32, margin int64) {
	if len(c.best) == c.topK {
		if cost >= c.best[c.topK-1] {
			return
		}
		c.best = c.best[:c.topK-1]
	}
	i, _ := slices.BinarySearch(c.best, cost)
	c.best = slices.Insert(c.best, i, cost)
	if len(c.best) == c.topK {
		c.cut.Store(int64(c.best[c.topK-1]) + margin)
	}
}
