// Signal-level flow-cell mode: instead of modeling the classifier as
// TPR/FPR coin flips, reads carry real simulated squiggles
// (internal/squiggle) and every capture streams its raw chunks through a
// real incremental engine Session. Ejections then happen because the
// actual sDTW cost crossed the actual threshold at the actual stage
// boundary — the closed loop of the paper's deployment scenario: signal
// in per-channel chunks, accelerator decides mid-read, ejection feeds
// back to the sequencer. Measured runtime/yield from this mode
// cross-validates the closed-form model in internal/readuntil.
package minion

import (
	"fmt"
	"math"
	"math/rand"

	"squigglefilter/internal/engine"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/squiggle"
)

// DefaultChunkSamples is the per-delivery chunk size the live mode feeds
// sessions with: ~0.1 s of signal at the MinION's ~4 kHz per-pore sample
// rate, the granularity the Read Until API exposes.
const DefaultChunkSamples = 400

// ReadPoolSource draws uniformly from a pre-generated pool of labelled
// squiggle reads, attaching the raw signal so a signal-level classifier
// can run real DP. The pool's composition sets the specimen's viral
// fraction.
func ReadPoolSource(reads []*squiggle.Read) ReadSource {
	return func(rng *rand.Rand) ReadPlan {
		r := reads[rng.Intn(len(reads))]
		return ReadPlan{LengthBases: len(r.Bases), Target: r.Target, Source: r.Source, Samples: r.Samples}
	}
}

// MixedPoolSource draws target reads with probability viralFraction and
// host reads otherwise, uniformly within each pool — the signal-level
// analogue of UniformSource, for cross-checking the analytical model
// with separately sized class pools.
func MixedPoolSource(targets, hosts []*squiggle.Read, viralFraction float64) ReadSource {
	return func(rng *rand.Rand) ReadPlan {
		pool := hosts
		if rng.Float64() < viralFraction {
			pool = targets
		}
		r := pool[rng.Intn(len(pool))]
		return ReadPlan{LengthBases: len(r.Bases), Target: r.Target, Source: r.Source, Samples: r.Samples}
	}
}

// SessionClassifier builds a signal-level Classifier over a pipeline's
// session scheduler: each captured read streams its squiggle through a
// fresh Session in chunkSamples-sized deliveries (<= 0 selects
// DefaultChunkSamples) and a Reject decided mid-read becomes an ejection
// taking effect after the consumed samples plus the classifier's
// latencySec of further sequencing. Reads whose signal ends before a
// stage decides — and reads with no attached signal — are sequenced in
// full. Shard configuration threads through unchanged: a pipeline with
// SetShards wavefronts each capture's DP across its instances, with
// verdicts (and therefore ejections and yield) bit-identical to the
// unsharded loop.
func SessionClassifier(pipe *engine.Pipeline, cfg Config, latencySec float64, chunkSamples int) (Classifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if chunkSamples <= 0 {
		chunkSamples = DefaultChunkSamples
	}
	spb := cfg.SamplesPerBase
	if spb <= 0 {
		return nil, fmt.Errorf("minion: SamplesPerBase must be positive for signal-level classification")
	}
	latencyBases := int(math.Ceil(latencySec * cfg.BasesPerSec))
	return func(_ *rand.Rand, r ReadPlan) Decision {
		if len(r.Samples) == 0 {
			return Decision{}
		}
		res, decided := pipe.NewSession().Stream(r.Samples, chunkSamples)
		// A decision after the molecule already finished translocating
		// cannot eject anything.
		if !decided || res.Decision != sdtw.Reject {
			return Decision{}
		}
		return Decision{
			Eject:         true,
			DecisionBases: int(math.Ceil(float64(res.SamplesUsed)/spb)) + latencyBases,
		}
	}, nil
}

// PoolRates streams every read of a labelled pool through real sessions
// once and returns the kept fraction per class — the measured TPR (target
// reads not ejected) and FPR (host reads not ejected) that parameterize
// the analytical runtime model for cross-validation. A read is "kept"
// unless a stage rejected it before the signal ended, mirroring
// SessionClassifier's ejection rule.
func PoolRates(pipe *engine.Pipeline, reads []*squiggle.Read, chunkSamples int) (tpr, fpr float64, err error) {
	if chunkSamples <= 0 {
		chunkSamples = DefaultChunkSamples
	}
	var targets, hosts, keptT, keptH int
	for _, r := range reads {
		res, decided := pipe.NewSession().Stream(r.Samples, chunkSamples)
		kept := !decided || res.Decision != sdtw.Reject
		if r.Target {
			targets++
			if kept {
				keptT++
			}
		} else {
			hosts++
			if kept {
				keptH++
			}
		}
	}
	if targets == 0 || hosts == 0 {
		return 0, 0, fmt.Errorf("minion: pool needs both target and host reads (have %d/%d)", targets, hosts)
	}
	return float64(keptT) / float64(targets), float64(keptH) / float64(hosts), nil
}
