package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"squigglefilter/internal/normalize"
	"squigglefilter/internal/sdtw"
)

// swPanel assembles targets (built with swTarget) into a panel.
func swPanel(t testing.TB, targets []Target) *Panel {
	t.Helper()
	panel, err := NewPanel(targets)
	if err != nil {
		t.Fatal(err)
	}
	return panel
}

func swTarget(t testing.TB, name string, ref []int8, cfg sdtw.IntConfig, instances int, stages []sdtw.Stage) Target {
	t.Helper()
	p, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, cfg) }, instances, stages)
	if err != nil {
		t.Fatal(err)
	}
	return Target{Name: name, Pipeline: p}
}

// TestPanelUndecidedVsAllReject is the PanelResult semantics regression:
// Best -1 covers two different outcomes, and the Undecided flag is what
// tells them apart. A read no target has decided (Continue) must not be
// reported as "every target rejected".
func TestPanelUndecidedVsAllReject(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	cfg := sdtw.DefaultIntConfig()
	refA, refB := randomRef(rng, 1200), randomRef(rng, 1200)
	stages := []sdtw.Stage{{PrefixSamples: 800, Threshold: 800 * 3}}
	panel := swPanel(t, []Target{
		swTarget(t, "A", refA, cfg, 1, stages),
		swTarget(t, "B", refB, cfg, 1, stages),
	})

	// A zero-length read leaves every target at Continue: undecided, not
	// rejected.
	empty := panel.Classify(nil)
	if empty.Best != -1 || !empty.Undecided {
		t.Errorf("zero-length read: Best=%d Undecided=%v, want -1/true", empty.Best, empty.Undecided)
	}
	for i, r := range empty.PerTarget {
		if r.Decision != sdtw.Continue {
			t.Errorf("target %d decided a zero-length read: %v", i, r.Decision)
		}
	}

	// An impossible threshold rejects at every target: Best -1 with
	// Undecided false is the genuine all-reject outcome.
	rejStages := []sdtw.Stage{{PrefixSamples: 500, Threshold: -1 << 30}}
	rejPanel := swPanel(t, []Target{
		swTarget(t, "A", refA, cfg, 1, rejStages),
		swTarget(t, "B", refB, cfg, 1, rejStages),
	})
	rej := rejPanel.Classify(randomRead(rng, 900))
	if rej.Best != -1 || rej.Undecided {
		t.Errorf("all-reject read: Best=%d Undecided=%v, want -1/false", rej.Best, rej.Undecided)
	}
	for i, r := range rej.PerTarget {
		if r.Decision != sdtw.Reject {
			t.Errorf("target %d did not reject: %v", i, r.Decision)
		}
	}

	// ClassifyBatch reports the same flags per read.
	batch := panel.ClassifyBatch([][]int16{nil, randomRead(rng, 900)})
	if batch[0].Best != -1 || !batch[0].Undecided {
		t.Errorf("batch zero-length read: Best=%d Undecided=%v, want -1/true", batch[0].Best, batch[0].Undecided)
	}
	if batch[1].Undecided {
		t.Errorf("batch decided read flagged Undecided: %+v", batch[1])
	}

	// A mid-stream panel session is undecided until a boundary lands.
	sess, err := panel.NewSession(PrunePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	mid, done := sess.Feed(randomRead(rng, 100))
	if done || mid.Best != -1 || !mid.Undecided {
		t.Errorf("pre-boundary snapshot: done=%v Best=%d Undecided=%v, want false/-1/true", done, mid.Best, mid.Undecided)
	}
	sess.Finalize()
}

// TestBestTargetExactRanking pins cross-schedule ranking to exact integer
// cross-multiplication on a tie-adjacent case the old float64 quotient
// could not resolve: the two per-sample rates differ by ~8.7e-19 relative
// — far below float64's ~2.2e-16 resolution at 1.0, so both quotients
// round to the same double and the float comparison kept the earlier
// target. The exact products differ by exactly 1.
func TestBestTargetExactRanking(t *testing.T) {
	worse := Result{Decision: sdtw.Accept, Cost: 1 << 30, SamplesUsed: (1 << 30) - 1}
	better := Result{Decision: sdtw.Accept, Cost: (1 << 30) + 1, SamplesUsed: 1 << 30}
	// Sanity: the float path really is blind here.
	fw := float64(worse.Cost) / float64(worse.SamplesUsed)
	fb := float64(better.Cost) / float64(better.SamplesUsed)
	if fb < fw {
		t.Fatalf("float64 resolved the tie-adjacent case (%v vs %v); pick a tighter pair", fb, fw)
	}
	if got := bestTarget([]Result{worse, better}); got != 1 {
		t.Errorf("bestTarget = %d, want 1 (exact rate %d/%d < %d/%d)",
			got, better.Cost, better.SamplesUsed, worse.Cost, worse.SamplesUsed)
	}
	// Order-independence: the exact comparison ranks the same either way.
	if got := bestTarget([]Result{better, worse}); got != 0 {
		t.Errorf("bestTarget (swapped) = %d, want 0", got)
	}
	// A true exact tie keeps the earliest target.
	tie := Result{Decision: sdtw.Accept, Cost: 2, SamplesUsed: 4}
	tie2 := Result{Decision: sdtw.Accept, Cost: 1, SamplesUsed: 2}
	if got := bestTarget([]Result{tie, tie2}); got != 0 {
		t.Errorf("exact tie bestTarget = %d, want earliest (0)", got)
	}
	// Negative costs (match bonus) rank correctly through the products.
	neg := Result{Decision: sdtw.Accept, Cost: -100, SamplesUsed: 50}
	pos := Result{Decision: sdtw.Accept, Cost: 100, SamplesUsed: 50}
	if got := bestTarget([]Result{pos, neg}); got != 1 {
		t.Errorf("negative-cost bestTarget = %d, want 1", got)
	}
}

// TestPanelSingleTargetInline: a single-target panel classifies on the
// caller's goroutine (the per-call goroutine fan-out is gone) and still
// matches the pipeline directly; run under -race with concurrent callers
// this is the bounded-worker regression test.
func TestPanelSingleTargetInline(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 1500)
	stages := []sdtw.Stage{{PrefixSamples: 1000, Threshold: 1000 * 3}}
	target := swTarget(t, "solo", ref, cfg, 2, stages)
	panel := swPanel(t, []Target{target})

	reads := make([][]int16, 8)
	want := make([]Result, len(reads))
	for i := range reads {
		reads[i] = randomRead(rng, 1200)
		want[i] = target.Pipeline.Classify(reads[i])
	}
	var wg sync.WaitGroup
	for i := range reads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pr := panel.Classify(reads[i])
			if !reflect.DeepEqual(pr.PerTarget[0], want[i]) {
				t.Errorf("read %d: single-target panel diverged from pipeline", i)
			}
		}(i)
	}
	wg.Wait()

	batch := panel.ClassifyBatch(reads)
	for i := range reads {
		if !reflect.DeepEqual(batch[i].PerTarget[0], want[i]) {
			t.Errorf("read %d: single-target batch diverged from pipeline", i)
		}
	}
}

// randomPanel builds a 2-4 target panel with independent random
// references and per-target random schedules — the multi-schedule case
// cross-target ranking and pruning must stay exact over.
func randomPanel(t testing.TB, rng *rand.Rand, cfg sdtw.IntConfig) *Panel {
	t.Helper()
	n := 2 + rng.Intn(3)
	targets := make([]Target, n)
	for i := range targets {
		ref := randomRef(rng, 1000+rng.Intn(1500))
		targets[i] = swTarget(t, string(rune('A'+i)), ref, cfg, 2, randomStages(rng))
	}
	return swPanel(t, targets)
}

// TestPanelSessionChunkingInvariance is the tentpole acceptance property:
// for random panels (2-4 targets, independent random schedules), random
// reads, and random chunk boundaries, a PanelSession with pruning
// disabled produces PanelResults bit-identical to one-shot
// Panel.Classify — per-target results, Best, and Undecided included.
func TestPanelSessionChunkingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	cfg := sdtw.DefaultIntConfig()
	for trial := 0; trial < 12; trial++ {
		panel := randomPanel(t, rng, cfg)
		read := randomRead(rng, 1+rng.Intn(3400))
		want := panel.Classify(read)

		maxChunk := 1
		if rng.Intn(3) > 0 {
			maxChunk = 1 + rng.Intn(900)
		}
		sess, err := panel.NewSession(PrunePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(read); {
			n := 1 + rng.Intn(maxChunk)
			if off+n > len(read) {
				n = len(read) - off
			}
			if _, done := sess.Feed(read[off : off+n]); done {
				break
			}
			off += n
		}
		got := sess.Finalize()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (maxChunk %d, read %d): streamed panel diverged:\ngot  %+v\nwant %+v",
				trial, maxChunk, len(read), got, want)
		}
		if sess.SamplesFed() > len(read) {
			t.Errorf("trial %d: SamplesFed %d > read %d", trial, sess.SamplesFed(), len(read))
		}
		for i, p := range sess.Pruned() {
			if p {
				t.Errorf("trial %d: target %d pruned with pruning disabled", trial, i)
			}
		}
	}
}

// TestPanelSessionPruningDisabledPreservesBest: with the margin disabled,
// the pruning machinery never changes the Best verdict (nor anything
// else) versus one-shot classification — streamed once through Stream for
// good measure, over random panels.
func TestPanelSessionPruningDisabledPreservesBest(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	cfg := sdtw.DefaultIntConfig()
	for trial := 0; trial < 10; trial++ {
		panel := randomPanel(t, rng, cfg)
		read := randomRead(rng, 200+rng.Intn(3000))
		want := panel.Classify(read)
		sess, err := panel.NewSession(PrunePolicy{Enabled: false})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := sess.Stream(read, 1+rng.Intn(500))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: disabled-margin session changed the outcome:\ngot  %+v\nwant %+v", trial, got, want)
		}
	}
}

// pruningPanel is the N-target differential fixture: a 4,500-sample read
// whose first stage window IS target 0's reference (in normalized units),
// so the leader accepts it at 2,000 samples with near-zero cost; the
// decoys run a longer accept-anything schedule (stages at 1,000 and
// 4,000) that without pruning keeps paying DP long after the leader
// decided. Returns the panel and the matched read.
func pruningPanel(t testing.TB, rng *rand.Rand, nTargets int) (*Panel, []int16) {
	t.Helper()
	cfg := sdtw.DefaultIntConfig()
	read := randomRead(rng, 4500)
	leadRef := make([]int8, 2500)
	copy(leadRef, normalize.ApplyInt8(read[:2000]))
	copy(leadRef[2000:], randomRef(rng, 500))
	leadStages := []sdtw.Stage{{PrefixSamples: 2000, Threshold: 1 << 30}}
	decoyStages := []sdtw.Stage{
		{PrefixSamples: 1000, Threshold: 1 << 30},
		{PrefixSamples: 4000, Threshold: 1 << 30},
	}
	targets := make([]Target, nTargets)
	targets[0] = swTarget(t, "lead", leadRef, cfg, 1, leadStages)
	for i := 1; i < nTargets; i++ {
		targets[i] = swTarget(t, "decoy", randomRef(rng, 2500), cfg, 1, decoyStages)
	}
	return swPanel(t, targets), read
}

// TestPanelSessionPruningSavesDP: on the 8-target fixture, enabling
// pruning with margin 0 abandons dominated decoys once the leader
// accepts, cutting total DP samples versus the no-pruning run without
// changing which target wins.
func TestPanelSessionPruningSavesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	panel, read := pruningPanel(t, rng, 8)

	run := func(pp PrunePolicy) (PanelResult, int64, []bool) {
		sess, err := panel.NewSession(pp)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := sess.Stream(read, 400)
		return res, sess.DPSamples(), sess.Pruned()
	}
	base, baseDP, basePruned := run(PrunePolicy{})
	pruned, prunedDP, prunedFlags := run(PrunePolicy{Enabled: true, MarginPerSample: 0})

	if base.Best != 0 {
		t.Fatalf("fixture broken: matched read not attributed to leader (Best=%d)", base.Best)
	}
	if pruned.Best != base.Best {
		t.Errorf("pruning changed Best: %d vs %d", pruned.Best, base.Best)
	}
	for i, p := range basePruned {
		if p {
			t.Errorf("no-pruning run pruned target %d", i)
		}
	}
	nPruned := 0
	for _, p := range prunedFlags {
		if p {
			nPruned++
		}
	}
	if nPruned == 0 {
		t.Error("pruning run abandoned no decoys")
	}
	if prunedDP >= baseDP {
		t.Errorf("pruning did not reduce DP samples: %d vs %d", prunedDP, baseDP)
	}
	t.Logf("8-target panel, 4500-sample matched read: DP samples %d -> %d (%d decoys pruned)",
		baseDP, prunedDP, nPruned)
}

// TestPanelSessionPrunePolicyValidation: a negative margin with pruning
// enabled is refused, and pruning with an effectively infinite margin
// never fires (the overflow-guarded comparison).
func TestPanelSessionPrunePolicyValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	panel, read := pruningPanel(t, rng, 3)
	if _, err := panel.NewSession(PrunePolicy{Enabled: true, MarginPerSample: -1}); err == nil {
		t.Error("negative margin accepted")
	}
	sess, err := panel.NewSession(PrunePolicy{Enabled: true, MarginPerSample: 1 << 60})
	if err != nil {
		t.Fatal(err)
	}
	sess.Stream(read, 400)
	for i, p := range sess.Pruned() {
		if p {
			t.Errorf("huge-margin policy pruned target %d", i)
		}
	}
}

// TestRunTargetsWorkerCap is the worker-set sizing regression test: the
// fan-out never allocates goroutines beyond the target count, so an
// oversized construction-time worker figure costs exactly what a
// right-sized one does, and a 1-worker set runs inline with zero
// allocations.
func TestRunTargetsWorkerCap(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	cfg := sdtw.DefaultIntConfig()
	stages := []sdtw.Stage{{PrefixSamples: 400, Threshold: 400 * 3}}
	targets := []Target{
		swTarget(t, "A", randomRef(rng, 600), cfg, 1, stages),
		swTarget(t, "B", randomRef(rng, 600), cfg, 1, stages),
	}
	oversized := swPanel(t, targets)
	oversized.workers = 64 // what a miscomputed construction-time figure would leave
	sized := swPanel(t, targets)
	sized.workers = 2

	noop := func(ti int) {}
	over := testing.AllocsPerRun(50, func() { oversized.runTargets(noop) })
	right := testing.AllocsPerRun(50, func() { sized.runTargets(noop) })
	if over != right {
		t.Errorf("oversized worker set allocates %.0f/run vs %.0f/run right-sized; cap at len(targets) is gone", over, right)
	}

	inline := swPanel(t, targets)
	inline.workers = 1
	if got := testing.AllocsPerRun(50, func() { inline.runTargets(noop) }); got != 0 {
		t.Errorf("1-worker fan-out allocates %.0f/run, want 0 (inline)", got)
	}
}
