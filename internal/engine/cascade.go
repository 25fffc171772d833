package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"squigglefilter/internal/engine/sched"
	"squigglefilter/internal/normalize"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/squiggle"
)

// The filtering cascade: a cheap coarse tier ahead of the exact panel.
//
// An N-target panel costs O(N) exact first-stage DPs per read even with
// cross-target pruning, because pruning only engages after some target
// accepts. The cascade bounds that: the read's first CoarsePrefix raw
// samples are decimated to roughly one sample per Decimation bases of
// genome (factor Decimation×dwell, since raw signal dwells ~10 samples
// per base) and scored against every target's Decimation×-decimated
// reference with the packed 16-bit kernel — at most
// N·(prefix/(d·dwell))·(refLen/d) DP cells per dwell hypothesis, a
// d²·dwell reduction per target, so 1,000 decimated targets cost less
// than a single exact one.
//
// Every (query, target) pair is scored exhaustively: the full sweep over
// every decimated reference, claimed in panel order, so a pass is dense
// streaming DP whose cell count is known before it starts. Nothing is
// abandoned early; DESIGN.md §11 records why.
//
// A read's true dwell varies ±~25% read to read (the sequencer's rate
// jitter), and the no-ref-deletion recurrence is one-sidedly fragile to
// that: decimate the query past the read's own dwell and the alignment
// cannot dwell on every coarse reference column — the true target's cost
// goes from best to indistinguishable from noise. No single decimation
// factor serves every read, so the coarse tier scores three dwell
// hypotheses (QueryDwell-2, QueryDwell, QueryDwell+2) and keeps the
// union of each hypothesis's top-k: costs rank targets only within one
// hypothesis (where every target sees the same query), never across
// hypotheses, so a mismatched hypothesis contributes at worst k junk
// survivors while the matched one preserves the winner. The targets
// ranking inside a hypothesis's top-k (plus any within Margin of its
// k-th, so exact ties are never split arbitrarily) survive into a plain
// PanelSession over just those targets; everything the exact tier does —
// stage schedules, leader pruning, verdict ranking — is the existing
// panel machinery unchanged.

// Cascade defaults: 8× decimation, 8 survivors per dwell hypothesis
// (pruning converges the exact tier further), zero margin (exact ties
// with the k-th still survive), a 6,000-sample coarse prefix, and dwell
// hypotheses centered on 8 — deliberately under the sequencer's nominal
// ~10 samples per base, because the recurrence tolerates an
// under-decimated query (it dwells) but not an over-decimated one. The
// EXPERIMENTS.md sweeps justify all four: at these settings the
// 600-target recall diagnostic placed every true target at union rank
// <= 1.
const (
	DefaultDecimation   = 8
	DefaultTopK         = 8
	DefaultCoarsePrefix = 6000
	DefaultQueryDwell   = 8

	// dwellSpread is the half-width of the dwell hypothesis set around
	// QueryDwell, covering the sequencer's per-read rate jitter.
	dwellSpread = 2
)

// CascadeConfig parameterizes the coarse tier.
type CascadeConfig struct {
	// Decimation is the mean-pooling factor applied to both the reference
	// squiggles and the read prefix. 0 means DefaultDecimation; 1 scores
	// at full rate (no decimation).
	Decimation int
	// TopK is how many coarse survivors reach the exact tier. 0 means
	// DefaultTopK; TopK >= len(targets) disables the coarse tier entirely,
	// making the cascade bit-identical to the plain panel.
	TopK int
	// Margin widens the survivor cut: any target whose coarse cost is
	// within Margin per decimated sample of the k-th best also survives.
	// Zero (the default) still keeps exact ties with the k-th.
	Margin int64
	// CoarsePrefix is how many raw samples the coarse tier scores before
	// committing to survivors. 0 means DefaultCoarsePrefix.
	CoarsePrefix int
	// QueryDwell centers the coarse tier's dwell hypotheses: the read
	// prefix is decimated by Decimation*dw for each dw in {QueryDwell-2,
	// QueryDwell, QueryDwell+2}, where the references — one level per
	// base — are decimated by Decimation alone, landing both sides at
	// the same genomic scale (one sample per ~Decimation bases). Without
	// the dwell factor a decimated query still carries ~1 sample per
	// base (raw signal dwells ~10 samples on each) and matches the
	// *full-rate* reference shape, not the decimated one; with a single
	// fixed factor, reads whose own dwell undershoots it become
	// unalignable under the no-ref-deletion recurrence. 0 means
	// DefaultQueryDwell.
	QueryDwell int
	// RecordCoarseCosts retains a per-hypothesis copy of every target's
	// coarse cost on the session for CoarseCosts diagnostics. Off (the
	// default) the coarse pass keeps no per-read copies — part of its
	// allocation-free hot path — and CoarseCosts returns nil.
	RecordCoarseCosts bool
}

func (c CascadeConfig) withDefaults() CascadeConfig {
	if c.Decimation == 0 {
		c.Decimation = DefaultDecimation
	}
	if c.TopK == 0 {
		c.TopK = DefaultTopK
	}
	if c.CoarsePrefix == 0 {
		c.CoarsePrefix = DefaultCoarsePrefix
	}
	if c.QueryDwell == 0 {
		c.QueryDwell = DefaultQueryDwell
	}
	return c
}

// queryFactors returns the raw-sample decimation factor of the coarse
// query under each dwell hypothesis, ascending and deduplicated (small
// QueryDwell values clamp the low hypothesis to dwell 1).
func (c CascadeConfig) queryFactors() []int {
	out := make([]int, 0, 3)
	for _, dw := range [3]int{c.QueryDwell - dwellSpread, c.QueryDwell, c.QueryDwell + dwellSpread} {
		if dw < 1 {
			dw = 1
		}
		f := c.Decimation * dw
		if len(out) == 0 || f != out[len(out)-1] {
			out = append(out, f)
		}
	}
	return out
}

func (c CascadeConfig) validate() error {
	switch {
	case c.Decimation < 1:
		return fmt.Errorf("engine: cascade decimation must be >= 1, got %d", c.Decimation)
	case c.TopK < 1:
		return fmt.Errorf("engine: cascade top-k must be >= 1, got %d", c.TopK)
	case c.Margin < 0:
		return fmt.Errorf("engine: cascade margin must be non-negative, got %d", c.Margin)
	case c.CoarsePrefix < 1:
		return fmt.Errorf("engine: cascade coarse prefix must be >= 1, got %d", c.CoarsePrefix)
	case c.QueryDwell < 1:
		return fmt.Errorf("engine: cascade query dwell must be >= 1, got %d", c.QueryDwell)
	}
	return nil
}

// Cascade pairs an exact Panel with the decimated coarse references that
// gate it. It is safe for concurrent use: coarse scoring state lives in
// pools (one scorer per lane group being scored, one pass per in-flight
// promotion) and per-read state in CascadeSession.
type Cascade struct {
	panel  *Panel
	cfg    CascadeConfig
	coarse [][]int8
	// lanes is the coarse panel transposed into lane groups of 16 for the
	// vector kernel, built once and shared read-only by every pooled
	// scorer.
	lanes *sdtw.CoarseLanes
	// refCells is the summed length of the coarse references: one query
	// sample's DP cells across the whole panel.
	refCells int64
	// sch prices and bounds the coarse tier's DP like any other back-end
	// work: each lane group a pass scores borrows one slot, costed at the
	// calibrated rate of the kernel each query runs on, for every dwell
	// hypothesis of the read, so EDF ordering and the utilization
	// accounting the flow-cell verdict reads stay honest.
	sch     *sched.Scheduler
	scorers sync.Pool
	passes  sync.Pool
	// helperSet is the persistent worker set both tiers share: parked
	// helpers join a promotion's coarse pass (claiming lane groups) and
	// its survivors' exact-tier feeds (claiming survivors), so neither
	// tier spawns goroutines per read. Close releases it.
	helperSet
}

// NewCascade builds a cascade in front of panel. coarseRefs holds the
// decimated (and re-normalized, re-quantized) reference squiggle for each
// panel target, in panel order; icfg is the sDTW cost configuration the
// coarse scorer runs with (normally the same defaults as the exact tier).
func NewCascade(panel *Panel, coarseRefs [][]int8, icfg sdtw.IntConfig, cfg CascadeConfig) (*Cascade, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if panel == nil {
		return nil, fmt.Errorf("engine: cascade needs a panel")
	}
	if len(coarseRefs) != len(panel.targets) {
		return nil, fmt.Errorf("engine: %d coarse references for %d panel targets",
			len(coarseRefs), len(panel.targets))
	}
	// Build and validate the lane panel once here, so the pooled scorers
	// are plain scratch over it.
	lanes, err := sdtw.NewCoarseLanes(coarseRefs, icfg)
	if err != nil {
		return nil, err
	}
	workers := len(panel.targets)
	if n := runtime.NumCPU(); workers > n {
		workers = n
	}
	var refCells int64
	for _, ref := range coarseRefs {
		refCells += int64(len(ref))
	}
	c := &Cascade{
		panel:    panel,
		cfg:      cfg,
		coarse:   coarseRefs,
		lanes:    lanes,
		refCells: refCells,
		sch:      sched.New(workers),
	}
	c.helperSet.init(workers)
	c.scorers.New = func() any { return lanes.NewScorer() }
	c.passes.New = func() any {
		p := &coarsePass{c: c, items: make([]coarseItem, len(cfg.queryFactors())), keep: make([]bool, len(coarseRefs))}
		p.job.body = p
		for k := range p.items {
			p.items[k].costs = make([]int32, len(coarseRefs))
		}
		return p
	}
	return c, nil
}

// Config returns the resolved (defaulted) configuration.
func (c *Cascade) Config() CascadeConfig { return c.cfg }

// Panel returns the exact tier.
func (c *Cascade) Panel() *Panel { return c.panel }

// Close releases the persistent helper set. Call it when the cascade is
// done serving reads; outstanding sessions should finish first (a coarse
// pass or exact-tier feed in flight when Close lands still completes —
// its caller always drains — but may run with less parallelism). Close is
// idempotent, safe concurrently with in-flight reads and with other Close
// calls, and returns only once the helper set has exited.
func (c *Cascade) Close() { c.helperSet.close() }

// coarseServiceTime models scoring one query of qlen samples against
// lane group g: the group's real cells (padding excluded) at the
// calibrated per-cell rate of the kernel that scoring runs on — the lane
// strip, or the scalar 16-bit sweep where the floor guard or the build
// sends the group reference by reference through Score. Every score
// sweeps all of its cells, so the modeled cell count is exact.
func (c *Cascade) coarseServiceTime(g, qlen int) time.Duration {
	rate := coarseScalarCellSeconds
	if c.lanes.Strip(g, qlen) {
		rate = laneCellSeconds
	}
	cells := float64(qlen) * float64(c.lanes.GroupCells(g))
	return time.Duration(cells * rate() * float64(time.Second))
}

// CoarseServiceTime returns the modeled wall time of one read's full
// coarse pass — every dwell hypothesis over every target — given the raw
// prefix length it will score: the figure flow-cell keep-up accounting
// adds per read on top of the exact tier's ServiceTime. The pass scores
// every cell it prices, so only the per-cell rate is modeled.
func (c *Cascade) CoarseServiceTime(rawPrefix int) time.Duration {
	if rawPrefix > c.cfg.CoarsePrefix {
		rawPrefix = c.cfg.CoarsePrefix
	}
	if rawPrefix <= 0 {
		return 0
	}
	var total time.Duration
	for _, qf := range c.cfg.queryFactors() {
		qlen := (rawPrefix + qf - 1) / qf
		for g := 0; g < c.lanes.NumGroups(); g++ {
			total += c.coarseServiceTime(g, qlen)
		}
	}
	return total
}

// coarseItem is one dwell hypothesis of a pass: the decimated+normalized
// query and each target's coarse cost.
type coarseItem struct {
	q     []int8
	eq    []int16 // decimation scratch feeding q
	costs []int32
}

// coarsePass is the pooled coarse scoring state of one promotion: one
// read's coarse prefix under every dwell hypothesis. The participants —
// the promoting caller plus any parked helpers — claim lane groups of 16
// references through the pass's claim job; each claim acquires one
// scheduler slot, costed for every hypothesis, and scores each
// hypothesis's query against that group while its lane state stays in
// L1, writing the costs back in panel order. Pooling the pass alongside
// the scorers is what makes the whole coarse pass allocation-free per
// read.
type coarsePass struct {
	c     *Cascade
	ctx   context.Context
	items []coarseItem // one per dwell hypothesis, ascending decimation factor
	keep  []bool       // per target: survivor union across hypotheses
	sel   []int32      // quickselect scratch for the survivor cut
	job   claimJob     // claims lane groups; its body is the pass itself
	mu    sync.Mutex   // guards err
	err   error
}

// getPass takes a pooled pass and loads read's coarse prefix (its first
// CoarsePrefix samples) into it: one query per dwell hypothesis. The
// queries reuse the pass's earlier scratch, so a warm pass allocates
// nothing here.
func (c *Cascade) getPass(ctx context.Context, read []int16) *coarsePass {
	p := c.passes.Get().(*coarsePass)
	p.ctx = ctx
	p.job.reset(c.lanes.NumGroups())
	p.err = nil
	clear(p.keep)
	if len(read) > c.cfg.CoarsePrefix {
		read = read[:c.cfg.CoarsePrefix]
	}
	for k, qf := range c.cfg.queryFactors() {
		it := &p.items[k]
		it.eq = squiggle.DecimateInt16Into(it.eq, read, qf)
		it.q = normalize.ApplyInt8Into(it.q, it.eq)
	}
	return p
}

func (c *Cascade) putPass(p *coarsePass) {
	p.ctx = nil
	c.passes.Put(p)
}

func (p *coarsePass) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.job.stop() // every participant drains out
}

func (p *coarsePass) takeErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// claim scores lane group g: one scheduler slot for the whole group, and
// everything between Acquire and Release is pure DP — every hypothesis's
// query scored against that group's references.
func (p *coarsePass) claim(g int) {
	c := p.c
	var cost time.Duration
	for k := range p.items {
		cost += c.coarseServiceTime(g, len(p.items[k].q))
	}
	s := c.scorers.Get().(*sdtw.CoarseScorer)
	defer c.scorers.Put(s)
	idx, err := c.sch.Acquire(p.ctx, sched.Task{Cost: cost})
	if err != nil {
		p.fail(err)
		return
	}
	for k := range p.items {
		it := &p.items[k]
		s.ScoreGroup(it.q, g, it.costs)
	}
	c.sch.Release(idx)
}

// run scores every query of the pass against every target, sharing the
// lane groups with the cascade's helper set, then marks the read's
// survivors: the union over its hypotheses of each hypothesis's top-k
// (ties and near-ties kept) — ranks are only meaningful within a
// hypothesis, and the one matching the read's true rate is the one that
// keeps the exact winner. The caller always participates and sees the
// pass through; the error is the first a participant hit (context
// cancellation in Acquire).
func (p *coarsePass) run() error {
	c := p.c
	c.helperSet.run(&p.job)
	if err := p.takeErr(); err != nil {
		return err
	}
	for k := range p.items {
		it := &p.items[k]
		cut, scratch := c.survivorCut(it.costs, len(it.q), p.sel)
		p.sel = scratch
		for i, cost := range it.costs {
			if int64(cost) <= cut {
				p.keep[i] = true
			}
		}
	}
	return nil
}

// kthSmallestInt32 returns the k-th smallest value (1-based, k in
// [1, len]) of xs, partially reordering xs in place: iterative
// quickselect with deterministic median-of-three pivoting, so the
// survivor cut costs O(n) expected instead of the O(n log n) full sort
// it replaced — and zero allocations, since only the pooled selection
// scratch is ever reordered.
func kthSmallestInt32(xs []int32, k int) int32 {
	lo, hi, target := 0, len(xs)-1, k-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		p := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case target <= j:
			hi = j
		case target >= i:
			lo = i
		default:
			return xs[target]
		}
	}
	return xs[lo]
}

// survivorCut returns the hypothesis's cut — the k-th smallest cost plus
// Margin per decimated sample — using scratch for the quickselect copy;
// the possibly-grown scratch is returned for reuse. Identical by value
// to the cut the former sort-based selection computed: sorting by
// (cost, index) and reading entry k-1 yields exactly the k-th smallest
// cost value. The cut saturates at MaxInt32 instead of overflowing on a
// huge Margin: every coarse cost fits in int16, so a saturated cut keeps
// exactly the targets the exact sum would.
func (c *Cascade) survivorCut(costs []int32, qlen int, scratch []int32) (int64, []int32) {
	scratch = append(scratch[:0], costs...)
	kth := int64(kthSmallestInt32(scratch, c.cfg.TopK))
	cut := int64(math.MaxInt32)
	if qlen == 0 || c.cfg.Margin <= (cut-kth)/int64(qlen) {
		cut = kth + c.cfg.Margin*int64(qlen)
	}
	return cut, scratch
}

// survivors picks the panel indices whose coarse cost is at most the k-th
// best plus Margin per decimated sample — top-k with ties and near-ties
// kept rather than split arbitrarily. Indices return in ascending panel
// order, so the exact tier's earliest-index tie-breaking matches the full
// panel's.
func (c *Cascade) survivors(costs []int32, qlen int) []int {
	cut, _ := c.survivorCut(costs, qlen, make([]int32, 0, len(costs)))
	out := make([]int, 0, c.cfg.TopK)
	for i := range costs {
		if int64(costs[i]) <= cut {
			out = append(out, i)
		}
	}
	return out
}

// CascadeSession is the incremental form of cascade classification: raw
// chunks buffer until the coarse prefix is complete, the coarse tier
// picks survivors, and the buffered signal replays into a PanelSession
// over just those survivors — bit-identical to having streamed the same
// chunks into it from the start, by the panel session's chunking
// invariance. Later chunks pass straight through. Like PanelSession it is
// single-read and single-goroutine.
type CascadeSession struct {
	c     *Cascade
	ctx   context.Context
	prune PrunePolicy
	// buf accumulates raw samples until promotion; nil afterwards.
	buf []int16
	fed int
	// inner is the exact tier over the survivors; nil until promotion.
	inner          *PanelSession
	surv           []int     // survivor panel indices, ascending
	coarseCost     [][]int32 // per dwell hypothesis, per target (RecordCoarseCosts)
	coarseDP       int64     // decimated samples scored, summed over targets
	coarseCells    int64     // coarse DP cells computed
	coarseScorings int64     // (target, hypothesis) scorings
	err            error
	done           bool
}

// NewSession starts an incremental cascade classification of one read.
// The prune policy governs the exact tier exactly as in Panel.NewSession.
func (c *Cascade) NewSession(prune PrunePolicy) (*CascadeSession, error) {
	return c.NewSessionContext(context.Background(), prune)
}

// NewSessionContext is NewSession bound to a context: both tiers wait
// for scheduler slots under ctx, so cancelling it mid-read unwinds the
// coarse pass (and the exact tier) cleanly instead of blocking — the
// session then reports the cause through Err and stays undecided, like
// an abandoned read. A nil ctx means context.Background().
func (c *Cascade) NewSessionContext(ctx context.Context, prune PrunePolicy) (*CascadeSession, error) {
	if err := prune.Validate(); err != nil {
		return nil, err
	}
	return c.newSession(ctx, prune), nil
}

// newSession opens a session under an already validated prune policy.
func (c *Cascade) newSession(ctx context.Context, prune PrunePolicy) *CascadeSession {
	if ctx == nil {
		ctx = context.Background()
	}
	return &CascadeSession{c: c, ctx: ctx, prune: prune}
}

// Feed delivers a chunk of raw samples and returns the panel verdict so
// far plus whether the read is decided. Before promotion the verdict is
// all-Continue (the coarse tier has not committed); afterwards it is the
// survivor panel's verdict expanded to full panel order, with coarse-
// rejected targets reported as Reject.
func (cs *CascadeSession) Feed(chunk []int16) (PanelResult, bool) {
	done := cs.feedChunk(chunk)
	return cs.snapshot(), done
}

func (cs *CascadeSession) feedChunk(chunk []int16) bool {
	if cs.done {
		return true
	}
	cs.fed += len(chunk)
	if cs.inner == nil {
		cs.buf = append(cs.buf, chunk...)
		if len(cs.buf) < cs.c.cfg.CoarsePrefix {
			return false
		}
		cs.c.promote(cs) // a cancelled coarse pass aborts cs
		return cs.done
	}
	cs.feedInner(chunk)
	return cs.done
}

// feedInner delivers chunk to the exact tier. A survivor whose context
// was cancelled while it waited for its pipeline aborts the session,
// exactly as a cancelled coarse pass does.
func (cs *CascadeSession) feedInner(chunk []int16) {
	cs.done = cs.inner.feed(chunk)
	if err := cs.inner.err(); err != nil {
		cs.abort(err)
	}
}

// abort stops the session without a decision: the read's context was
// cancelled in either tier. Live survivors are abandoned, the verdict
// reverts to all-Continue (exactly an abandoned read) and Err reports the
// cause.
func (cs *CascadeSession) abort(err error) {
	cs.err = err
	cs.buf = nil
	cs.done = true
	if cs.inner != nil {
		cs.inner.abandon()
	}
}

// promote commits the session to its survivors, then opens its exact
// tier over them and replays the buffered signal into it. With TopK
// covering the whole panel the coarse tier is skipped outright (every
// target survives, zero coarse DP); with an empty buffer — a read
// finalized before any signal — there is no evidence to prune on, so
// every target survives and decides on nothing, exactly as the plain
// panel would. ctx cancelling in either tier aborts the session, which
// then reports the cause through Err.
func (c *Cascade) promote(cs *CascadeSession) {
	if c.cfg.TopK < len(c.panel.targets) && len(cs.buf) > 0 {
		p := c.getPass(cs.ctx, cs.buf)
		err := p.run()
		if err == nil {
			cs.commit(p)
		}
		c.putPass(p)
		if err != nil {
			cs.abort(err)
			return
		}
	} else {
		cs.allSurvive()
	}
	cs.openInner()
	buf := cs.buf
	cs.buf = nil
	if len(buf) > 0 {
		cs.feedInner(buf)
	}
}

// commit copies the pass's results onto the session: survivor set,
// accounting, and (when recording) per-hypothesis cost rows. Every query
// sample is scored against every reference, so the accounting follows
// from the query lengths alone.
func (cs *CascadeSession) commit(p *coarsePass) {
	n := int64(len(cs.c.coarse))
	for k := range p.items {
		it := &p.items[k]
		if cs.c.cfg.RecordCoarseCosts {
			cs.coarseCost = append(cs.coarseCost, append([]int32(nil), it.costs...))
		}
		qlen := int64(len(it.q))
		cs.coarseDP += qlen * n
		cs.coarseCells += qlen * cs.c.refCells
		cs.coarseScorings += n
	}
	cs.surv = cs.surv[:0]
	for i, k := range p.keep {
		if k {
			cs.surv = append(cs.surv, i)
		}
	}
}

// allSurvive commits the trivial survivor set: every target. Used when
// TopK covers the panel or there is no buffered evidence to prune on.
func (cs *CascadeSession) allSurvive() {
	n := len(cs.c.panel.targets)
	cs.surv = make([]int, n)
	for i := range cs.surv {
		cs.surv[i] = i
	}
}

// openInner opens the exact tier over the committed survivor set, sharing
// the cascade's helper set so one delivery's survivors can run on several
// goroutines. The prune policy was validated when the session opened.
func (cs *CascadeSession) openInner() {
	sub := make([]Target, len(cs.surv))
	for j, i := range cs.surv {
		sub[j] = cs.c.panel.targets[i]
	}
	cs.inner = newPanelSession(cs.ctx, sub, cs.prune, &cs.c.helperSet)
}

// Finalize signals that the read ended. A read shorter than the coarse
// prefix promotes on whatever buffered, then the survivor panel
// finalizes on the full buffered signal.
func (cs *CascadeSession) Finalize() PanelResult {
	if cs.done {
		return cs.snapshot()
	}
	if cs.inner == nil {
		if cs.c.promote(cs); cs.err != nil {
			return cs.snapshot() // the promotion aborted cs
		}
	}
	cs.inner.Finalize()
	cs.done = true
	if err := cs.inner.err(); err != nil {
		cs.abort(err)
	}
	return cs.snapshot()
}

// Stream feeds a read's signal in chunkSamples-sized deliveries (<= 0
// feeds everything at once), stopping once decided, then finalizes — the
// cascade twin of PanelSession.Stream.
func (cs *CascadeSession) Stream(samples []int16, chunkSamples int) (PanelResult, bool) {
	done := streamChunks(samples, chunkSamples, cs.feedChunk)
	return cs.Finalize(), done
}

// Decided reports whether every surviving target has decided or been
// pruned.
func (cs *CascadeSession) Decided() bool { return cs.done }

// Err reports why the session stopped without deciding: non-nil exactly
// when the session's context was cancelled while either tier waited for
// scheduler slots. The verdict is then the all-Continue abandoned-read one.
func (cs *CascadeSession) Err() error { return cs.err }

// SamplesFed returns the raw samples delivered so far.
func (cs *CascadeSession) SamplesFed() int { return cs.fed }

// Promoted reports whether the coarse tier has committed to survivors.
func (cs *CascadeSession) Promoted() bool { return cs.inner != nil }

// Survivors returns the panel indices the coarse tier kept, in ascending
// panel order; nil before the coarse tier commits. The slice is a copy.
func (cs *CascadeSession) Survivors() []int {
	if cs.surv == nil {
		return nil
	}
	out := make([]int, len(cs.surv))
	copy(out, cs.surv)
	return out
}

// CoarseCosts returns each target's coarse-tier cost in panel order, one
// row per dwell hypothesis (ascending decimation factor), or nil when
// the coarse tier did not score (not promoted yet, skipped because TopK
// covered the panel, or CascadeConfig.RecordCoarseCosts is off — the
// default, keeping the coarse pass allocation-free). Costs compare only
// within a row. The slices are copies.
func (cs *CascadeSession) CoarseCosts() [][]int32 {
	if cs.coarseCost == nil {
		return nil
	}
	out := make([][]int32, len(cs.coarseCost))
	for h, row := range cs.coarseCost {
		out[h] = make([]int32, len(row))
		copy(out[h], row)
	}
	return out
}

// DPSamples returns the raw samples that entered exact-tier DP across the
// surviving targets — directly comparable to PanelSession.DPSamples on
// the full panel.
func (cs *CascadeSession) DPSamples() int64 {
	if cs.inner == nil {
		return 0
	}
	return cs.inner.DPSamples()
}

// CoarseDPSamples returns the decimated samples the coarse tier scored,
// summed over targets (zero when the coarse tier was skipped): exactly
// each hypothesis's query length times the number of targets.
func (cs *CascadeSession) CoarseDPSamples() int64 { return cs.coarseDP }

// CoarseDPCells returns the coarse DP cells computed: each hypothesis's
// query length times the summed decimated reference lengths.
func (cs *CascadeSession) CoarseDPCells() int64 { return cs.coarseCells }

// CoarsePruned returns 0.
//
// Deprecated: the coarse tier no longer abandons scorings early.
func (cs *CascadeSession) CoarsePruned() int64 { return 0 }

// CoarseScorings returns how many per-target scorings the coarse tier
// ran (targets × hypotheses).
func (cs *CascadeSession) CoarseScorings() int64 { return cs.coarseScorings }

// DPCells returns the total DP cells computed across both tiers — the
// apples-to-apples work metric for comparing a cascade against an exact
// panel, since coarse cells and exact cells are the same kernel cell at
// different reference lengths.
func (cs *CascadeSession) DPCells() int64 {
	cells := cs.coarseCells
	if cs.inner != nil {
		for j, i := range cs.surv {
			cells += int64(cs.inner.per[j].SamplesUsed) * int64(cs.c.panel.targets[i].Pipeline.RefLen())
		}
	}
	return cells
}

// snapshot expands the survivor panel's verdict to full panel order.
// Coarse-rejected targets report Reject with no samples consumed — the
// cascade's claim that the exact tier would have rejected them, which
// TestCascadeNeverDropsExactWinner holds to the only consequence that
// matters: the winner is never among them.
func (cs *CascadeSession) snapshot() PanelResult {
	n := len(cs.c.panel.targets)
	per := make([]Result, n)
	if cs.inner == nil || cs.err != nil {
		for i := range per {
			per[i] = Result{Decision: sdtw.Continue, EndPos: -1}
		}
		return panelResult(per)
	}
	for i := range per {
		per[i] = Result{Decision: sdtw.Reject, EndPos: -1}
	}
	for j, i := range cs.surv {
		per[i] = cs.inner.per[j]
	}
	return panelResult(per)
}

// Classify runs one read through the cascade in one shot: a session
// under the zero prune policy, fed the whole read once.
func (c *Cascade) Classify(samples []int16) PanelResult {
	r, _ := c.newSession(context.Background(), PrunePolicy{}).Stream(samples, 0)
	return r
}

// ClassifyContext is Classify under a context: a cancellation mid-read
// unwinds both tiers and returns the cause alongside the undecided
// (all-Continue) verdict.
func (c *Cascade) ClassifyContext(ctx context.Context, samples []int16) (PanelResult, error) {
	cs := c.newSession(ctx, PrunePolicy{})
	r, _ := cs.Stream(samples, 0)
	return r, cs.Err()
}
