package squigglefilter

import (
	"context"
	"fmt"

	"squigglefilter/internal/engine"
	"squigglefilter/internal/normalize"
	"squigglefilter/internal/squiggle"
)

// CascadeConfig parameterizes the coarse filtering tier of a cascade
// panel. The zero value selects the defaults the EXPERIMENTS.md sweeps
// justify: 8× decimation, 8 survivors per dwell hypothesis, zero margin,
// and a 6,000-sample coarse prefix.
type CascadeConfig struct {
	// Decimation is the mean-pooling factor applied to the reference
	// squiggles and the read prefix before coarse scoring (0 = default 8;
	// 1 scores at full rate). Coarse DP per target shrinks by Decimation².
	Decimation int
	// TopK is how many coarse survivors each dwell hypothesis contributes
	// to the exact panel (0 = default 8); the survivors are the union of
	// the three hypotheses' top-k sets, so up to 3*TopK targets run the
	// exact tier. TopK >= the panel size disables the coarse tier: the
	// cascade is then bit-identical to a plain Panel.
	TopK int
	// Margin widens the survivor cut: targets whose coarse cost is within
	// Margin per decimated sample of a hypothesis's k-th best also
	// survive. Zero (the default) still keeps exact ties with the k-th —
	// ties are never split arbitrarily.
	Margin int
	// CoarsePrefix is how many raw samples buffer before the coarse tier
	// commits to survivors (0 = default 6,000).
	CoarsePrefix int
}

// CascadePanel classifies reads against a large panel — hundreds to
// thousands of target genomes — through a two-tier cascade: a coarse tier
// scores a decimated read prefix against every target's decimated
// reference (cheap: the per-target DP shrinks by Decimation²) under
// three read-rate hypotheses, and only the union of each hypothesis's
// top-k survivors runs the exact Panel machinery, cross-target pruning
// included. The correctness contract, property-tested in
// TestCascadeNeverDropsExactWinner, is that the cascade keeps the target
// the exact panel would have attributed the read to; with TopK >= the
// panel size it is bit-identical to Panel.Classify. A CascadePanel is
// safe for concurrent use.
type CascadePanel struct {
	cascade *engine.Cascade
	// exact is the full exact-tier panel over the same detectors and
	// pipelines — what the cascade degenerates to with TopK >= size.
	exact *Panel
}

// NewCascadePanel programs one detector per config and assembles the
// two-tier cascade: each target's coarse reference is its reference
// squiggle decimated by cc.Decimation, re-normalized, and re-quantized,
// so coarse costs are in the same fixed-point units as exact ones.
func NewCascadePanel(cfgs []DetectorConfig, cc CascadeConfig) (*CascadePanel, error) {
	if cc.Margin < 0 {
		return nil, fmt.Errorf("squigglefilter: cascade margin must be non-negative, got %d", cc.Margin)
	}
	targets, names, dets, err := buildTargets(cfgs)
	if err != nil {
		return nil, err
	}
	panel, err := engine.NewPanel(targets)
	if err != nil {
		return nil, fmt.Errorf("squigglefilter: %w", err)
	}
	ecc := engine.CascadeConfig{
		Decimation:   cc.Decimation,
		TopK:         cc.TopK,
		Margin:       int64(cc.Margin),
		CoarsePrefix: cc.CoarsePrefix,
	}
	d := ecc.Decimation
	if d == 0 {
		d = engine.DefaultDecimation
	}
	coarse := make([][]int8, len(dets))
	for i, det := range dets {
		coarse[i] = normalize.QuantizeSlice(squiggle.Decimate(det.ref.Float, d))
	}
	// Every detector shares the panel's cost configuration for coarse
	// scoring; per-target MatchBonus overrides only shape the exact tier,
	// where their stage thresholds were calibrated.
	cascade, err := engine.NewCascade(panel, coarse, dets[0].cfg, ecc)
	if err != nil {
		return nil, fmt.Errorf("squigglefilter: %w", err)
	}
	return &CascadePanel{
		cascade: cascade,
		exact:   &Panel{panel: panel, names: names},
	}, nil
}

// Targets returns the panel's target names in order.
func (cp *CascadePanel) Targets() []string { return cp.exact.Targets() }

// Panel returns the exact tier as a plain Panel over the same detectors
// and pipelines — the baseline a cascade run is measured against.
func (cp *CascadePanel) Panel() *Panel { return cp.exact }

// Config returns the resolved (defaulted) cascade configuration.
func (cp *CascadePanel) Config() CascadeConfig {
	c := cp.cascade.Config()
	return CascadeConfig{
		Decimation:   c.Decimation,
		TopK:         c.TopK,
		Margin:       int(c.Margin),
		CoarsePrefix: c.CoarsePrefix,
	}
}

// Classify runs one read through the cascade in one shot: coarse tier on
// the buffered prefix, exact tier on the survivors. Targets the coarse
// tier rejected report Reject with zero samples used.
func (cp *CascadePanel) Classify(samples []int16) PanelVerdict {
	return cp.exact.verdictFrom(cp.cascade.Classify(samples))
}

// CascadeSession is the incremental form of CascadePanel.Classify: raw
// chunks buffer until the coarse prefix completes, the coarse tier picks
// survivors, and the buffered signal replays into the survivor panel —
// verdicts from then on are bit-identical to a PanelSession over just the
// survivors. Use one per read, from one goroutine.
type CascadeSession struct {
	cp *CascadePanel
	s  *engine.CascadeSession
}

// NewSession starts an incremental cascade classification of one read
// under the given exact-tier pruning policy.
func (cp *CascadePanel) NewSession(prune PrunePolicy) (*CascadeSession, error) {
	return cp.NewSessionContext(context.Background(), prune)
}

// NewSessionContext is NewSession bound to a context: both tiers wait for
// back-end instances under ctx, so cancelling it mid-read unwinds a
// session stuck behind a saturated scheduler instead of blocking. The
// session then reports the cause through Err and its verdict stays
// undecided, like an abandoned read. A nil ctx means context.Background().
func (cp *CascadePanel) NewSessionContext(ctx context.Context, prune PrunePolicy) (*CascadeSession, error) {
	s, err := cp.cascade.NewSessionContext(ctx, engine.PrunePolicy{Enabled: prune.Enabled, MarginPerSample: int64(prune.MarginPerSample)})
	if err != nil {
		return nil, fmt.Errorf("squigglefilter: %w", err)
	}
	return &CascadeSession{cp: cp, s: s}, nil
}

// Close releases the cascade's persistent coarse-tier workers. Call it
// when the panel is done serving reads; it is idempotent, and sessions
// still in flight complete (with less parallelism).
func (cp *CascadePanel) Close() { cp.cascade.Close() }

// Feed delivers a chunk of raw samples and returns the panel verdict so
// far plus whether the read is decided. Before the coarse tier commits,
// every target reports Continue.
func (cs *CascadeSession) Feed(chunk []int16) (PanelVerdict, bool) {
	r, done := cs.s.Feed(chunk)
	return cs.cp.exact.verdictFrom(r), done
}

// Finalize signals that the read ended; a read shorter than the coarse
// prefix runs the coarse tier on whatever arrived, then the survivors
// decide on the full buffered signal. Finalize is idempotent.
func (cs *CascadeSession) Finalize() PanelVerdict {
	return cs.cp.exact.verdictFrom(cs.s.Finalize())
}

// Stream feeds a whole read in chunkSamples-sized deliveries (<= 0 feeds
// it at once), stopping once every surviving target decided, then
// finalizes. The returned bool reports whether the cascade decided before
// the signal ended.
func (cs *CascadeSession) Stream(samples []int16, chunkSamples int) (PanelVerdict, bool) {
	r, decided := cs.s.Stream(samples, chunkSamples)
	return cs.cp.exact.verdictFrom(r), decided
}

// Decided reports whether every surviving target has decided or been
// pruned.
func (cs *CascadeSession) Decided() bool { return cs.s.Decided() }

// SamplesFed returns the raw samples delivered so far.
func (cs *CascadeSession) SamplesFed() int { return cs.s.SamplesFed() }

// Survivors returns the panel indices the coarse tier kept (ascending),
// or nil before it has committed.
func (cs *CascadeSession) Survivors() []int { return cs.s.Survivors() }

// DPSamples returns the raw samples that entered exact-tier DP across the
// survivors — directly comparable to PanelSession.DPSamples on the full
// panel.
func (cs *CascadeSession) DPSamples() int64 { return cs.s.DPSamples() }

// Err reports why the session stopped without deciding: non-nil exactly
// when the session's context was cancelled while a tier waited for
// back-end instances.
func (cs *CascadeSession) Err() error { return cs.s.Err() }

// CoarseDPSamples returns the decimated samples the coarse tier scored,
// summed over targets (zero when TopK covered the panel). Every target
// is scored in full, so this is each dwell hypothesis's decimated prefix
// length times the panel size.
func (cs *CascadeSession) CoarseDPSamples() int64 { return cs.s.CoarseDPSamples() }

// CoarseDPCells returns the coarse DP cells computed: each dwell
// hypothesis's decimated prefix length times the summed decimated
// reference lengths.
func (cs *CascadeSession) CoarseDPCells() int64 { return cs.s.CoarseDPCells() }

// CoarsePruned returns 0.
//
// Deprecated: the coarse tier scores every target in full and abandons
// nothing early.
func (cs *CascadeSession) CoarsePruned() int64 { return 0 }

// CoarseScorings returns how many per-target coarse scorings the coarse
// tier ran (targets × dwell hypotheses).
func (cs *CascadeSession) CoarseScorings() int64 { return cs.s.CoarseScorings() }

// DPCells returns the total DP cells computed across both tiers — the
// apples-to-apples work metric against an exact panel, whose per-read
// cells are its DPSamples × each target's reference length.
func (cs *CascadeSession) DPCells() int64 { return cs.s.DPCells() }

// Stream classifies one read through a fresh cascade session in
// chunkSamples-sized deliveries under the given pruning policy.
func (cp *CascadePanel) Stream(samples []int16, chunkSamples int, prune PrunePolicy) (PanelVerdict, bool, error) {
	sess, err := cp.NewSession(prune)
	if err != nil {
		return PanelVerdict{}, false, err
	}
	v, decided := sess.Stream(samples, chunkSamples)
	return v, decided, nil
}
