package sdtw

// Filter is the complete squiggle-level classifier: per-chunk integer
// normalization followed by the integer sDTW engine, with optional
// multi-stage thresholds (paper Section 4.6).
//
// A Filter is programmed once with a reference (the precomputed reference
// squiggle of the target genome, both strands) and then classifies read
// prefixes. It is safe for concurrent use: classification state lives in
// per-call Alignment values.

import (
	"fmt"

	"squigglefilter/internal/normalize"
)

// Decision is a Read Until verdict.
type Decision int

const (
	// Continue: confidence too low at this stage; sequence further and
	// re-examine at the next stage boundary.
	Continue Decision = iota
	// Accept: the read matches the target; sequence it to completion.
	Accept
	// Reject: the read does not match; eject it from the pore.
	Reject
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Continue:
		return "continue"
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Stage is one threshold point of a multi-stage filter: once PrefixSamples
// raw samples have been seen, reads with alignment cost above Threshold are
// ejected; at the final stage, reads at or below Threshold are accepted.
type Stage struct {
	PrefixSamples int
	Threshold     int32
}

// Filter classifies raw read prefixes against a programmed reference. It
// is the reference implementation, not a production path: Filter.Classify
// is the plain stage loop — normalize each stage chunk, extend one DP row,
// apply the threshold — that the engine's incremental sessions must match
// bit for bit, and engine's TestBackendMatchesFilter pins every back-end
// to it. CostAt serves the single-shot costs that threshold calibration
// and Detector.Cost need.
type Filter struct {
	ref    []int8
	cfg    IntConfig
	stages []Stage
}

// ValidateStages checks a stage schedule: non-empty, positive and strictly
// increasing prefix lengths. It is the single validator for every consumer
// of a schedule (NewFilter, the engine back-ends and pipeline).
func ValidateStages(stages []Stage) error {
	if len(stages) == 0 {
		return fmt.Errorf("sdtw: at least one stage required")
	}
	for i, s := range stages {
		if s.PrefixSamples <= 0 {
			return fmt.Errorf("sdtw: stage %d has non-positive prefix", i)
		}
		if i > 0 && s.PrefixSamples <= stages[i-1].PrefixSamples {
			return fmt.Errorf("sdtw: stage prefixes must increase (stage %d)", i)
		}
	}
	return nil
}

// NewFilter programs a filter with a quantized reference squiggle and
// stage schedule. Stages must have strictly increasing prefix lengths.
func NewFilter(ref []int8, cfg IntConfig, stages []Stage) (*Filter, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("sdtw: empty reference")
	}
	if err := ValidateStages(stages); err != nil {
		return nil, err
	}
	return &Filter{ref: ref, cfg: cfg, stages: stages}, nil
}

// RefLen returns the programmed reference length in samples.
func (f *Filter) RefLen() int { return len(f.ref) }

// Stages returns a copy of the stage schedule.
func (f *Filter) Stages() []Stage {
	out := make([]Stage, len(f.stages))
	copy(out, f.stages)
	return out
}

// StageResult records the outcome of one stage of a classification.
type StageResult struct {
	Stage    int
	Samples  int
	Cost     int32
	EndPos   int
	Decision Decision
}

// Verdict is the outcome of classifying one read.
type Verdict struct {
	// Final decision: Accept or Reject (or Continue when the read ended
	// before the first stage boundary was reached).
	Decision Decision
	// SamplesUsed is how many raw samples were consumed before deciding —
	// the quantity Read Until converts into saved sequencing time.
	SamplesUsed int
	// PerStage records every stage evaluated.
	PerStage []StageResult
}

// Cost returns the alignment cost at the deciding stage, or the last
// evaluated cost.
func (v Verdict) Cost() int32 {
	if len(v.PerStage) == 0 {
		return 0
	}
	return v.PerStage[len(v.PerStage)-1].Cost
}

// Classify runs the staged filter over a read's raw samples. Each stage
// normalizes only the newly arrived chunk (the hardware normalizer works on
// fixed windows as samples stream in) and extends the saved DP row, so no
// DP work is repeated across stages (paper: "Intermediate results can be
// stored to avoid recomputation").
//
// If the read is shorter than the first stage boundary, the whole read is
// evaluated against the first stage's threshold (a read that ends is
// decided with whatever signal exists).
func (f *Filter) Classify(samples []int16) Verdict {
	row := NewRow(len(f.ref))
	v := Verdict{Decision: Continue}
	consumed := 0
	for si, stage := range f.stages {
		end := stage.PrefixSamples
		last := si == len(f.stages)-1
		if end >= len(samples) {
			end = len(samples)
			last = true // read exhausted: this stage is final
		}
		if end <= consumed {
			break
		}
		chunk := normalize.ApplyInt8(samples[consumed:end])
		res := Extend(row, chunk, f.ref, f.cfg)
		consumed = end
		sr := StageResult{Stage: si, Samples: consumed, Cost: res.Cost, EndPos: res.EndPos}
		switch {
		case res.Cost > stage.Threshold:
			sr.Decision = Reject
		case last:
			sr.Decision = Accept
		default:
			sr.Decision = Continue
		}
		v.PerStage = append(v.PerStage, sr)
		v.SamplesUsed = consumed
		v.Decision = sr.Decision
		if sr.Decision != Continue {
			return v
		}
	}
	return v
}

// CostAt computes the single-shot alignment cost of the first
// prefixSamples raw samples, normalizing the prefix as one window. This is
// the primitive used by threshold sweeps (Figures 11, 17a, 18, 19): sweeps
// need raw costs for every read before choosing thresholds.
func (f *Filter) CostAt(samples []int16, prefixSamples int) IntResult {
	if prefixSamples > len(samples) {
		prefixSamples = len(samples)
	}
	q := normalize.ApplyInt8(samples[:prefixSamples])
	return IntDP(q, f.ref, f.cfg)
}
