package engine

import (
	"context"
	"fmt"
	"runtime"

	"squigglefilter/internal/sdtw"
)

// Target is one reference genome in a Panel: a name plus the pipeline
// programmed with that target's reference and stage schedule.
type Target struct {
	Name     string
	Pipeline *Pipeline
}

// Panel classifies one read against several targets at once — the
// multi-virus differential test the paper's single-target detector extends
// to naturally. It is safe for concurrent use.
type Panel struct {
	targets []Target
	// workers bounds the goroutines any one Classify/ClassifyBatch call
	// fans targets across; a single-target panel runs inline with none.
	workers int
}

// NewPanel builds a panel over at least one target.
func NewPanel(targets []Target) (*Panel, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("engine: panel needs at least one target")
	}
	for i, t := range targets {
		if t.Pipeline == nil {
			return nil, fmt.Errorf("engine: panel target %d (%q) has no pipeline", i, t.Name)
		}
	}
	workers := len(targets)
	if n := runtime.NumCPU(); workers > n {
		workers = n
	}
	return &Panel{targets: targets, workers: workers}, nil
}

// Targets returns the panel's target names in order.
func (p *Panel) Targets() []string {
	out := make([]string, len(p.targets))
	for i, t := range p.targets {
		out[i] = t.Name
	}
	return out
}

// PanelResult is the outcome of classifying one read against every target.
type PanelResult struct {
	// Best indexes the accepting target with the exact lowest per-sample
	// cost (schedules may use different prefix lengths, so costs are
	// compared per sample consumed). Best is -1 when no target accepted:
	// either every target rejected the read, or — when Undecided is true —
	// at least one target has not decided yet (its verdict is Continue).
	Best int
	// Undecided reports that no target accepted and at least one target's
	// verdict is still Continue: the read is not attributable yet, which
	// is a different outcome from every target rejecting it.
	Undecided bool
	// PerTarget holds each target's result, in panel order.
	PerTarget []Result
}

// panelResult assembles the ranking and the Undecided flag from per-target
// results — the single constructor both the one-shot and the session paths
// share, which keeps their outcomes comparable bit for bit.
func panelResult(per []Result) PanelResult {
	pr := PanelResult{Best: bestTarget(per), PerTarget: per}
	if pr.Best < 0 {
		for _, r := range per {
			if r.Decision == sdtw.Continue {
				pr.Undecided = true
				break
			}
		}
	}
	return pr
}

// runTargets fans fn over every target index using at most p.workers
// participants claiming targets through one claimJob — a bounded worker
// set instead of a goroutine per target, and no goroutine at all for a
// single-target panel.
func (p *Panel) runTargets(fn func(ti int)) {
	// Cap at the target count here, at the use site, so the worker set can
	// never outgrow the work even if the construction-time sizing changes;
	// a 1-worker set runs inline — no goroutines or WaitGroup wake-ups on
	// a single-CPU host.
	workers := min(p.workers, len(p.targets))
	if workers == 1 {
		for ti := range p.targets {
			fn(ti)
		}
		return
	}
	j := &claimJob{body: claimFunc(fn)}
	j.reset(len(p.targets))
	j.runSpawned(workers)
}

// Classify runs one read against every target, fanning multi-target
// panels across the bounded worker set; a single-target panel classifies
// inline on the caller's goroutine.
func (p *Panel) Classify(samples []int16) PanelResult {
	per := make([]Result, len(p.targets))
	p.runTargets(func(ti int) {
		per[ti] = p.targets[ti].Pipeline.Classify(samples)
	})
	return panelResult(per)
}

// ClassifyBatch runs a batch of reads against every target, each target
// sharding the batch across its own pipeline's worker pool, returning
// per-read results in input order. Targets are scheduled over the panel's
// bounded worker set (single-target panels run inline).
func (p *Panel) ClassifyBatch(reads [][]int16) []PanelResult {
	per := make([][]Result, len(p.targets))
	p.runTargets(func(ti int) {
		// The background context is never cancelled, so the error is
		// structurally nil.
		per[ti], _ = p.targets[ti].Pipeline.ClassifyBatch(context.Background(), reads)
	})
	out := make([]PanelResult, len(reads))
	for i := range reads {
		row := make([]Result, len(p.targets))
		for ti := range p.targets {
			row[ti] = per[ti][i]
		}
		out[i] = panelResult(row)
	}
	return out
}

// bestTarget picks the accepting result with the exact lowest cost per
// sample consumed; ties keep the earliest target. Returns -1 when nothing
// accepted.
func bestTarget(results []Result) int {
	best := -1
	for i, r := range results {
		if r.Decision != sdtw.Accept || r.SamplesUsed <= 0 {
			continue
		}
		if best == -1 || lessRate(r, results[best]) {
			best = i
		}
	}
	return best
}

// lessRate reports Cost_a/Used_a < Cost_b/Used_b by integer
// cross-multiplication — exact where the float64 quotient rounds away
// differences below ~1e-16 relative, so cross-schedule ranking is
// deterministic. Used is positive for any accepted result, which keeps
// the inequality direction; Cost is int32 and Used a sample count, so the
// int64 products cannot overflow (|product| < 2^31 * 2^32).
func lessRate(a, b Result) bool {
	return int64(a.Cost)*int64(b.SamplesUsed) < int64(b.Cost)*int64(a.SamplesUsed)
}
