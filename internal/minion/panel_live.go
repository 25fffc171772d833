// Panel mode of the signal-level flow cell: captured reads stream their
// raw chunks through an engine PanelSession spanning several target
// references at once — the mixed-virus deployment the paper's
// programmability argument points at. A read is ejected only when every
// panel target has rejected it mid-read; reads any target accepts (or
// that end undecided) sequence to completion. Per-target attribution,
// ejection, pruning, and DP-work accounting accumulate in a PanelTally.
package minion

import (
	"fmt"
	"math"
	"math/rand"

	"squigglefilter/internal/engine"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/squiggle"
)

// MultiPoolSource draws reads from several labelled pools — e.g. one pool
// per panel virus plus a host pool — picking pool i with probability
// weights[i] (weights are normalized internally), then uniformly within
// the pool. The mixed-virus specimen of a differential panel run.
func MultiPoolSource(pools [][]*squiggle.Read, weights []float64) (ReadSource, error) {
	if len(pools) == 0 || len(pools) != len(weights) {
		return nil, fmt.Errorf("minion: need matching non-empty pools and weights (have %d/%d)", len(pools), len(weights))
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("minion: pool weight %d is negative", i)
		}
		if len(pools[i]) == 0 {
			return nil, fmt.Errorf("minion: pool %d is empty", i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("minion: pool weights sum to zero")
	}
	return func(rng *rand.Rand) ReadPlan {
		u := rng.Float64() * total
		pi := len(pools) - 1
		for i, w := range weights {
			if u < w {
				pi = i
				break
			}
			u -= w
		}
		r := pools[pi][rng.Intn(len(pools[pi]))]
		return ReadPlan{LengthBases: len(r.Bases), Target: r.Target, Source: r.Source, Samples: r.Samples}
	}, nil
}

// PanelTally accumulates per-target accounting across every read a
// PanelSessionClassifier sees. It is written by the classifier callback
// and must only be read once the simulation run has returned (the
// simulator drives the classifier from a single goroutine).
type PanelTally struct {
	// Targets names the panel's targets, in panel order.
	Targets []string
	// Attributed counts reads whose final Best landed on each target.
	Attributed []int64
	// Correct counts attributed reads whose plan Source matched the
	// winning target's name; Misattributed counts those whose Source was
	// a *different* panel target. Reads from outside the panel (host
	// false positives) count in neither, so Correct vs Misattributed is
	// the differential accuracy among panel viruses.
	Correct       int64
	Misattributed int64
	// Rejects counts, per target, reads this target rejected (whether or
	// not the read was ultimately ejected — ejection requires every
	// target to reject mid-read).
	Rejects []int64
	// Pruned counts, per target, reads on which the pruning policy
	// abandoned this target undecided.
	Pruned []int64
	// DPSamples accumulates, per target, the raw samples that entered
	// dynamic programming — the work metric pruning shrinks.
	DPSamples []int64
	// Ejected / Sequenced / Undecided / LateRejects count whole reads:
	// ejected mid-read, kept to completion with a winner, kept with no
	// verdict, and kept because every target rejected only once the
	// signal had already ended (nothing left to eject).
	Ejected, Sequenced, Undecided, LateRejects int64
}

// PanelSessionClassifier builds a signal-level Classifier over an engine
// Panel: each captured read streams its squiggle through a fresh
// PanelSession in chunkSamples-sized deliveries (<= 0 selects
// DefaultChunkSamples) under the given pruning policy. A read every
// target rejects mid-read is ejected after the consumed samples plus
// latencySec of further sequencing; reads any target accepts, and reads
// whose signal ends first, sequence to completion. The returned tally
// accumulates per-target accounting across the run.
func PanelSessionClassifier(panel *engine.Panel, cfg Config, latencySec float64, chunkSamples int, prune engine.PrunePolicy) (Classifier, *PanelTally, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if chunkSamples <= 0 {
		chunkSamples = DefaultChunkSamples
	}
	if err := prune.Validate(); err != nil {
		return nil, nil, fmt.Errorf("minion: %w", err)
	}
	spb := cfg.SamplesPerBase
	if spb <= 0 {
		return nil, nil, fmt.Errorf("minion: SamplesPerBase must be positive for signal-level classification")
	}
	names := panel.Targets()
	nameSet := make(map[string]bool, len(names))
	for _, n := range names {
		nameSet[n] = true
	}
	tally := &PanelTally{
		Targets:    names,
		Attributed: make([]int64, len(names)),
		Rejects:    make([]int64, len(names)),
		Pruned:     make([]int64, len(names)),
		DPSamples:  make([]int64, len(names)),
	}
	latencyBases := int(math.Ceil(latencySec * cfg.BasesPerSec))
	return func(_ *rand.Rand, r ReadPlan) Decision {
		if len(r.Samples) == 0 {
			return Decision{}
		}
		sess, _ := panel.NewSession(prune) // the policy is validated above
		res, decided := sess.Stream(r.Samples, chunkSamples)
		for i, tr := range res.PerTarget {
			tally.DPSamples[i] += int64(tr.SamplesUsed)
			if tr.Decision == sdtw.Reject {
				tally.Rejects[i]++
			}
		}
		for i, p := range sess.Pruned() {
			if p {
				tally.Pruned[i]++
			}
		}
		switch {
		case res.Best >= 0:
			tally.Sequenced++
			tally.Attributed[res.Best]++
			switch {
			case r.Source == names[res.Best]:
				tally.Correct++
			case nameSet[r.Source]:
				tally.Misattributed++
			}
			return Decision{}
		case res.Undecided:
			// Some target never decided: the read sequences in full.
			tally.Undecided++
			return Decision{}
		case !decided:
			// Every target rejected, but only once the molecule had
			// finished translocating: an all-reject verdict with nothing
			// left to eject.
			tally.LateRejects++
			return Decision{}
		default:
			// Every target rejected mid-read: eject.
			tally.Ejected++
			return Decision{
				Eject:         true,
				DecisionBases: int(math.Ceil(float64(sess.SamplesFed())/spb)) + latencyBases,
			}
		}
	}, tally, nil
}
