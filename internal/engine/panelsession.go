package engine

import (
	"context"
	"fmt"
	"math"

	"squigglefilter/internal/sdtw"
)

// PrunePolicy configures cross-target pruning in a PanelSession.
//
// Targets that Reject stop consuming DP work unconditionally — that is
// the per-target session contract, not a policy choice. The policy
// governs the lossy half: once some target has Accepted (the decided
// leader), still-undecided targets whose observed per-sample cost trails
// the leader's by more than MarginPerSample are abandoned, so an N-target
// panel converges toward one target's DP cost for unambiguous reads. The
// zero value disables leader pruning, which makes a streamed PanelSession
// bit-identical to one-shot Panel.Classify (see DESIGN.md §5 for why).
type PrunePolicy struct {
	// Enabled turns leader-domination pruning on. Disabled (the zero
	// value), the panel session is verdict-preserving: every target runs
	// to its own decision exactly as Panel.Classify would drive it.
	Enabled bool
	// MarginPerSample is the per-sample cost slack (in the same
	// fixed-point units as sdtw costs) an undecided target may trail the
	// accepted leader before being pruned. 0 prunes anything strictly
	// worse than the leader; larger values prune more conservatively.
	// Must be non-negative when Enabled.
	MarginPerSample int64
}

// Validate reports a policy no session can run: an enabled policy with a
// negative margin. Panel and cascade sessions refuse such a policy when
// they open; callers that open many sessions under one policy can check
// it once up front.
func (pp PrunePolicy) Validate() error {
	if pp.Enabled && pp.MarginPerSample < 0 {
		return fmt.Errorf("engine: prune margin must be non-negative, got %d", pp.MarginPerSample)
	}
	return nil
}

// PanelSession is the incremental form of Panel.Classify: one read's raw
// chunks fan into a per-target Session per panel target, each multiplexed
// over its own pipeline's instance pool, and the panel verdict updates at
// every delivery. Targets stop consuming DP work the moment they decide,
// and — under an enabled PrunePolicy — the moment an accepted leader
// dominates them, so the differential panel's marginal cost over a
// single-target detector shrinks as reads become unambiguous.
//
// A PanelSession is single-read and single-goroutine from its caller's
// side; any number of concurrent panel sessions may be open at once
// (their DP work serializes on the target pipelines' instances). A
// session opened with a helper set (the cascade's exact tier) may run
// one delivery's per-target sessions on several goroutines, but every
// decision about which targets stay live is made on the caller.
type PanelSession struct {
	prune PrunePolicy
	sess  []*Session
	per   []Result // last known result per target
	// stopped marks targets no longer fed: decided, or pruned. pruned
	// additionally marks the subset the policy abandoned undecided.
	stopped []bool
	pruned  []bool
	live    int
	fed     int
	done    bool

	// One delivery's fan-out: the caller lists the live targets in order,
	// and the participants of job — the caller plus whatever idle helpers
	// join — claim them, each running one target's Session on chunk (or
	// its Finalize when final). Only target i's own per[i] and Session are
	// written by whoever claims it.
	helpers *helperSet // nil: the caller feeds every target itself
	job     claimJob
	order   []int
	chunk   []int16
	final   bool
}

// NewSession starts an incremental classification of one read against
// every target. It errors only when the prune policy is invalid.
func (p *Panel) NewSession(prune PrunePolicy) (*PanelSession, error) {
	return p.NewSessionContext(context.Background(), prune)
}

// NewSessionContext is NewSession bound to a context: every per-target
// session waits for its pipeline instances under ctx, so cancelling it
// unblocks a Feed stuck behind a saturated scheduler (each target then
// reports its session error; the panel verdict stays undecided). The
// cascade threads its session context through here so the exact tier
// honors the same cancellation as the coarse pass.
func (p *Panel) NewSessionContext(ctx context.Context, prune PrunePolicy) (*PanelSession, error) {
	if err := prune.Validate(); err != nil {
		return nil, err
	}
	return newPanelSession(ctx, p.targets, prune, nil), nil
}

// newPanelSession opens a session over targets whose deliveries the given
// helper set may join (nil keeps every delivery on the caller). The prune
// policy must already be validated.
func newPanelSession(ctx context.Context, targets []Target, prune PrunePolicy, helpers *helperSet) *PanelSession {
	n := len(targets)
	ps := &PanelSession{
		prune:   prune,
		sess:    make([]*Session, n),
		per:     make([]Result, n),
		stopped: make([]bool, n),
		pruned:  make([]bool, n),
		live:    n,
		helpers: helpers,
		order:   make([]int, 0, n),
	}
	ps.job.body = ps
	for i, t := range targets {
		ps.sess[i] = t.Pipeline.NewSessionContext(ctx)
		ps.per[i] = Result{Decision: sdtw.Continue, EndPos: -1}
	}
	return ps
}

// Feed delivers a chunk of raw samples to every still-live target and
// returns the panel verdict so far plus whether the read is decided for
// every target (each Accepted, Rejected, or was pruned). Once done,
// further chunks are ignored and the decided result is returned
// unchanged.
func (ps *PanelSession) Feed(chunk []int16) (PanelResult, bool) {
	done := ps.feed(chunk)
	return ps.snapshot(), done
}

// feed is Feed without the snapshot — the hot path Stream drives, which
// only needs the done signal per delivery.
func (ps *PanelSession) feed(chunk []int16) bool {
	if ps.done {
		return true
	}
	ps.fed += len(chunk)
	ps.deliver(chunk, false)
	ps.applyPruning()
	ps.done = ps.live == 0
	return ps.done
}

// deliver runs one delivery — chunk, or the read's end when final — on
// every live target, then retires the targets it decided. When at least
// two live targets have a stage to evaluate, the delivery is shared with
// the helper set; otherwise it stays on the caller and wakes nobody.
// Either way each target sees exactly the signal a serial loop would
// give it, and stopped/live change only here, after the join.
func (ps *PanelSession) deliver(chunk []int16, final bool) {
	ps.order = ps.order[:0]
	due := 0
	for i, s := range ps.sess {
		if ps.stopped[i] {
			continue
		}
		ps.order = append(ps.order, i)
		if s.stageDue(len(chunk), final) {
			due++
		}
	}
	h := ps.helpers
	if due < 2 {
		h = nil
	}
	ps.chunk, ps.final = chunk, final
	ps.job.reset(len(ps.order))
	h.run(&ps.job)
	ps.chunk = nil
	for _, i := range ps.order {
		if ps.sess[i].done {
			ps.stopped[i] = true
			ps.live--
		}
	}
}

// claim runs the delivery on the k-th live target.
func (ps *PanelSession) claim(k int) {
	i := ps.order[k]
	if ps.final {
		ps.per[i] = ps.sess[i].Finalize()
	} else {
		ps.per[i], _ = ps.sess[i].Feed(ps.chunk)
	}
}

// err returns the first target session error in panel order: a target
// whose context was cancelled while it waited for an instance.
func (ps *PanelSession) err() error {
	for _, s := range ps.sess {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// applyPruning abandons live targets an accepted leader dominates beyond
// the configured margin. A live target with no evaluated stage yet has no
// observed rate and is never pruned.
func (ps *PanelSession) applyPruning() {
	if !ps.prune.Enabled || ps.live == 0 {
		return
	}
	leader := bestTarget(ps.per)
	if leader < 0 {
		return
	}
	l := ps.per[leader]
	for i := range ps.sess {
		if ps.stopped[i] || ps.per[i].SamplesUsed <= 0 {
			continue
		}
		if exceedsMargin(ps.per[i], l, ps.prune.MarginPerSample) {
			ps.per[i] = ps.sess[i].Abandon()
			ps.stopped[i] = true
			ps.pruned[i] = true
			ps.live--
		}
	}
}

// abandon stops every live target undecided: the owning cascade gave the
// read up.
func (ps *PanelSession) abandon() {
	for i, s := range ps.sess {
		if !ps.stopped[i] {
			ps.per[i] = s.Abandon()
			ps.stopped[i] = true
			ps.live--
		}
	}
	ps.done = true
}

// exceedsMargin reports rate(r) - rate(leader) > margin in exact integer
// arithmetic: Cost_r/Used_r - Cost_l/Used_l > margin multiplied through
// by the (positive) sample counts.
func exceedsMargin(r, leader Result, margin int64) bool {
	lhs := int64(r.Cost)*int64(leader.SamplesUsed) - int64(leader.Cost)*int64(r.SamplesUsed)
	prod := int64(r.SamplesUsed) * int64(leader.SamplesUsed)
	if margin > 0 && prod > math.MaxInt64/margin {
		// A margin this wide can never be exceeded by int32 costs; treat
		// it as "never prune" instead of overflowing the comparison.
		return false
	}
	return lhs > margin*prod
}

// Finalize signals that the read ended: every live target decides on its
// buffered signal exactly as a single-target Session.Finalize would, and
// the final panel verdict is returned. Pruned targets keep the result
// they were abandoned with. Finalize is idempotent.
func (ps *PanelSession) Finalize() PanelResult {
	if ps.done {
		return ps.snapshot()
	}
	ps.deliver(nil, true)
	ps.done = true
	return ps.snapshot()
}

// Stream feeds a read's signal in chunkSamples-sized deliveries (<= 0
// feeds everything at once), stopping once every target is decided or
// pruned, then finalizes. The returned bool reports whether the panel
// decided before the signal ended — the only case a live loop can still
// act on with an ejection.
func (ps *PanelSession) Stream(samples []int16, chunkSamples int) (PanelResult, bool) {
	done := streamChunks(samples, chunkSamples, ps.feed)
	return ps.Finalize(), done
}

// Decided reports whether every target has decided or been pruned.
func (ps *PanelSession) Decided() bool { return ps.done }

// SamplesFed returns the raw samples delivered to the panel so far — the
// read prefix a live loop has paid for when the verdict lands.
func (ps *PanelSession) SamplesFed() int { return ps.fed }

// Pruned reports, per target, whether the pruning policy abandoned it
// undecided. The slice is a copy in panel order.
func (ps *PanelSession) Pruned() []bool {
	out := make([]bool, len(ps.pruned))
	copy(out, ps.pruned)
	return out
}

// DPSamples returns the total raw samples that actually entered DP across
// all targets — the work metric cross-target pruning exists to shrink
// (without pruning it approaches len(targets) × the samples each
// schedule consumes).
func (ps *PanelSession) DPSamples() int64 {
	var n int64
	for _, r := range ps.per {
		n += int64(r.SamplesUsed)
	}
	return n
}

// snapshot assembles the current PanelResult from per-target state via
// the same constructor the one-shot path uses.
func (ps *PanelSession) snapshot() PanelResult {
	per := make([]Result, len(ps.per))
	copy(per, ps.per)
	return panelResult(per)
}
