package squigglefilter

import (
	"fmt"

	"squigglefilter/internal/engine"
)

// Panel classifies reads against several target genomes at once — e.g. a
// respiratory panel of SARS-CoV-2, influenza A, and RSV references — and
// picks the best-matching target per read. Each target runs its own
// detector schedule, so per-virus thresholds, stage schedules, and shard
// configurations can differ: a target built with DetectorConfig.Shards
// wavefronts each read's DP across its own worker pool, in one-shot and
// PanelSession streaming alike, with verdicts bit-identical to the
// unsharded panel. A Panel is safe for concurrent use.
type Panel struct {
	panel *engine.Panel
	names []string
}

// buildTargets programs one detector per config and returns the engine
// targets, the target names, and the detectors themselves (the cascade
// needs their reference squiggles to build the coarse tier).
func buildTargets(cfgs []DetectorConfig) ([]engine.Target, []string, []*Detector, error) {
	if len(cfgs) == 0 {
		return nil, nil, nil, fmt.Errorf("squigglefilter: panel needs at least one target")
	}
	targets := make([]engine.Target, len(cfgs))
	names := make([]string, len(cfgs))
	dets := make([]*Detector, len(cfgs))
	for i, cfg := range cfgs {
		// A target's default is unsharded: the panel already runs its
		// targets side by side, so the per-read wavefront is opt-in here.
		if cfg.Shards == 0 {
			cfg.Shards = 1
		}
		det, err := NewDetector(cfg)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("squigglefilter: panel target %d (%q): %w", i, cfg.Name, err)
		}
		targets[i] = engine.Target{Name: cfg.Name, Pipeline: det.swPipe}
		names[i] = cfg.Name
		dets[i] = det
	}
	return targets, names, dets, nil
}

// NewPanel programs one detector per config and assembles them into a
// panel.
func NewPanel(cfgs []DetectorConfig) (*Panel, error) {
	targets, names, _, err := buildTargets(cfgs)
	if err != nil {
		return nil, err
	}
	panel, err := engine.NewPanel(targets)
	if err != nil {
		return nil, fmt.Errorf("squigglefilter: %w", err)
	}
	return &Panel{panel: panel, names: names}, nil
}

// Targets returns the panel's target names in order.
func (p *Panel) Targets() []string {
	out := make([]string, len(p.names))
	copy(out, p.names)
	return out
}

// PanelVerdict is the outcome of classifying one read against every
// target.
type PanelVerdict struct {
	// Best indexes the accepting target with the exact lowest per-sample
	// cost. Best is -1 when no target accepted: either every target
	// rejected the read, or — when Undecided is true — at least one
	// target has not decided yet.
	Best int
	// Undecided reports that no target accepted and at least one target's
	// verdict is still Continue: the read cannot be attributed yet, which
	// is a different outcome from every target rejecting it.
	Undecided bool
	// Target is the winning target's name ("" when Best is -1).
	Target string
	// Verdicts holds each target's verdict, in panel order.
	Verdicts []Verdict
}

func (p *Panel) verdictFrom(r engine.PanelResult) PanelVerdict {
	pv := PanelVerdict{Best: r.Best, Undecided: r.Undecided, Verdicts: make([]Verdict, len(r.PerTarget))}
	for i, tr := range r.PerTarget {
		pv.Verdicts[i] = verdictFrom(tr)
	}
	if pv.Best >= 0 {
		pv.Target = p.names[pv.Best]
	}
	return pv
}

// Classify runs one read against every target concurrently (a
// single-target panel classifies inline on the caller's goroutine).
func (p *Panel) Classify(samples []int16) PanelVerdict {
	return p.verdictFrom(p.panel.Classify(samples))
}

// ClassifyBatch classifies a batch of reads against every target, sharding
// each target's work across its own worker pool. Results are in input
// order.
func (p *Panel) ClassifyBatch(reads [][]int16) []PanelVerdict {
	res := p.panel.ClassifyBatch(reads)
	out := make([]PanelVerdict, len(res))
	for i, r := range res {
		out[i] = p.verdictFrom(r)
	}
	return out
}

// PrunePolicy configures cross-target pruning for panel sessions.
//
// Targets that reject a read stop consuming DP work unconditionally. With
// Enabled set, once some target has accepted (the decided leader),
// still-undecided targets whose observed per-sample cost trails the
// leader's by more than MarginPerSample are abandoned too, so an N-target
// panel converges toward a single target's DP cost for unambiguous reads.
// The zero value disables leader pruning, which makes streamed panel
// verdicts bit-identical to one-shot Classify.
type PrunePolicy struct {
	Enabled bool
	// MarginPerSample is the per-sample cost slack (same fixed-point
	// units as Verdict.Cost) an undecided target may trail the accepted
	// leader before being pruned. Must be non-negative when Enabled.
	MarginPerSample int
}

// PanelSession is the incremental form of Panel.Classify: feed one read's
// raw signal chunk by chunk and the panel verdict updates at every
// delivery, with per-target DP work stopping the moment each target
// decides (or is pruned). Use one PanelSession per read, from one
// goroutine; any number of concurrent panel sessions may be open at once.
type PanelSession struct {
	p *Panel
	s *engine.PanelSession
}

// NewSession starts an incremental classification of one read against
// every target under the given pruning policy.
func (p *Panel) NewSession(prune PrunePolicy) (*PanelSession, error) {
	s, err := p.panel.NewSession(engine.PrunePolicy{Enabled: prune.Enabled, MarginPerSample: int64(prune.MarginPerSample)})
	if err != nil {
		return nil, fmt.Errorf("squigglefilter: %w", err)
	}
	return &PanelSession{p: p, s: s}, nil
}

// Feed delivers a chunk of raw samples to every still-live target and
// returns the panel verdict so far plus whether the read is decided for
// every target. Once done, further chunks are ignored.
func (ps *PanelSession) Feed(chunk []int16) (PanelVerdict, bool) {
	r, done := ps.s.Feed(chunk)
	return ps.p.verdictFrom(r), done
}

// Finalize signals that the read ended: every live target decides on its
// buffered signal, exactly as one-shot Classify decides a short read.
// Finalize is idempotent.
func (ps *PanelSession) Finalize() PanelVerdict {
	return ps.p.verdictFrom(ps.s.Finalize())
}

// Stream feeds a whole read in chunkSamples-sized deliveries (<= 0 feeds
// it at once), stopping once every target is decided or pruned, then
// finalizes. The returned bool reports whether the panel decided before
// the signal ended — the only case Read Until can still eject the read.
func (ps *PanelSession) Stream(samples []int16, chunkSamples int) (PanelVerdict, bool) {
	r, decided := ps.s.Stream(samples, chunkSamples)
	return ps.p.verdictFrom(r), decided
}

// Decided reports whether every target has decided or been pruned.
func (ps *PanelSession) Decided() bool { return ps.s.Decided() }

// SamplesFed returns the raw samples delivered so far.
func (ps *PanelSession) SamplesFed() int { return ps.s.SamplesFed() }

// Pruned reports, per target, whether the pruning policy abandoned it
// before it decided.
func (ps *PanelSession) Pruned() []bool { return ps.s.Pruned() }

// DPSamples returns the total samples that entered dynamic programming
// across all targets — the work cross-target pruning saves.
func (ps *PanelSession) DPSamples() int64 { return ps.s.DPSamples() }

// Stream classifies one read through a fresh panel session in
// chunkSamples-sized deliveries under the given pruning policy — the
// one-call streaming path. The returned bool reports whether the panel
// decided before the signal ended.
func (p *Panel) Stream(samples []int16, chunkSamples int, prune PrunePolicy) (PanelVerdict, bool, error) {
	sess, err := p.NewSession(prune)
	if err != nil {
		return PanelVerdict{}, false, err
	}
	v, decided := sess.Stream(samples, chunkSamples)
	return v, decided, nil
}
