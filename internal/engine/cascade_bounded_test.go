package engine

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"squigglefilter/internal/engine/sched"
	"squigglefilter/internal/normalize"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/squiggle"
)

// TestKthSmallestInt32 pins the quickselect behind the survivor cut
// against a full sort, over random arrays with heavy duplication (coarse
// costs tie often).
func TestKthSmallestInt32(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(60)
		xs := make([]int32, n)
		for i := range xs {
			xs[i] = int32(rng.Intn(15) - 5)
		}
		sorted := append([]int32(nil), xs...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		k := 1 + rng.Intn(n)
		scratch := append([]int32(nil), xs...)
		if got := kthSmallestInt32(scratch, k); got != sorted[k-1] {
			t.Fatalf("trial %d: kthSmallest(%v, %d) = %d, want %d", trial, xs, k, got, sorted[k-1])
		}
	}
}

// buildBoundedCascade assembles a cascade plus an independent scorer over
// the identical coarse references, so tests can recompute survivor sets
// from first principles.
func buildBoundedCascade(t testing.TB, rng *rand.Rand, n, topK int, margin int64, prefix int) (*Cascade, *sdtw.CoarseScorer) {
	t.Helper()
	cfg := sdtw.DefaultIntConfig()
	refs := make([][]int8, n)
	coarse := make([][]int8, n)
	for i := range refs {
		// Varied lengths, so per-reference slot costs and the helpers'
		// claim interleaving differ from target to target.
		refs[i] = randomRef(rng, 400+rng.Intn(500))
		coarse[i] = coarseRefFor(refs[i], DefaultDecimation)
	}
	stages := []sdtw.Stage{{PrefixSamples: 500, Threshold: 500 * 4}}
	targets := make([]Target, n)
	for i, r := range refs {
		targets[i] = swTarget(t, "t", r, cfg, 1, stages)
	}
	panel := swPanel(t, targets)
	c, err := NewCascade(panel, coarse, cfg, CascadeConfig{TopK: topK, Margin: margin, CoarsePrefix: prefix})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	scorer, err := sdtw.NewCoarseScorer(coarse, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Force a multi-participant pass even on a single-CPU host, so the
	// persistent-helper handoff is always under test (the scheduler pool
	// keeps its own sizing; participants just queue for its slots).
	if c.workers < 4 {
		setHelpers(c, 4)
	}
	return c, scorer
}

// setHelpers replaces c's helper set with one of the given worker count,
// so tests can put the helper handoff under test on any host. No read
// may be in flight.
func setHelpers(c *Cascade, workers int) {
	c.helperSet.close()
	c.helperSet = helperSet{}
	c.helperSet.init(workers)
}

// TestCascadeBoundedSurvivorIdentity is the coarse pass's contract: the
// pooled, multi-participant pass — quickselect selection, whatever order
// the workers race through the references in — commits exactly the
// survivor set that scoring each target on its own plus the pinned
// survivors() rule would, over random panels, reads, TopK, and Margin
// (including Margin > 0 near-tie retention, and a Margin so large that
// Margin·qlen overflows int64 at this test's query lengths of 12–25
// decimated samples: the cut must saturate, not wrap to an empty set).
func TestCascadeBoundedSurvivorIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	cases := []struct {
		n, topK int
		margin  int64
	}{
		{12, 1, 0},
		{12, 4, 0},
		{32, 4, 0},
		{32, 4, 2},
		{32, 8, 50},
		{16, 15, 0},
		{12, 2, 715923647559119312}, // Margin·qlen wraps negative for qlen 13–25
	}
	for _, tc := range cases {
		c, scorer := buildBoundedCascade(t, rng, tc.n, tc.topK, tc.margin, 1200)
		for trial := 0; trial < 6; trial++ {
			read := randomRead(rng, 900+rng.Intn(1200))
			cs, err := c.NewSession(PrunePolicy{})
			if err != nil {
				t.Fatal(err)
			}
			cs.Stream(read, 200+rng.Intn(700))
			got := cs.Survivors()

			prefix := read
			if len(prefix) > c.cfg.CoarsePrefix {
				prefix = prefix[:c.cfg.CoarsePrefix]
			}
			keep := make([]bool, tc.n)
			for _, qf := range c.cfg.queryFactors() {
				q := normalize.ApplyInt8(squiggle.DecimateInt16(prefix, qf))
				costs := make([]int32, tc.n)
				for i := range costs {
					costs[i] = scorer.Score(q, i).Cost
				}
				for _, i := range c.survivors(costs, len(q)) {
					keep[i] = true
				}
			}
			want := make([]int, 0, tc.n)
			for i, k := range keep {
				if k {
					want = append(want, i)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d k=%d margin=%d trial %d: pass survivors %v != per-target %v",
					tc.n, tc.topK, tc.margin, trial, got, want)
			}
			if len(got) < 1 {
				t.Fatalf("n=%d k=%d: empty survivor set", tc.n, tc.topK)
			}
		}
		c.Close()
	}
}

// TestCascadeSessionContextCancel: cancelling the session context while
// the coarse pass is queued behind a saturated scheduler unwinds the
// pass — the session reports the cause through Err, stays unpromoted
// with the abandoned-read (all-Continue) verdict, and leaks no
// goroutines beyond the persistent helper set.
func TestCascadeSessionContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	cfg := sdtw.DefaultIntConfig()
	// Three lane groups, so a pass has work for three participants.
	refs := make([][]int8, 33)
	for i := range refs {
		refs[i] = randomRef(rng, 800)
	}
	stages := []sdtw.Stage{{PrefixSamples: 500, Threshold: 500 * 4}}
	targets := make([]Target, len(refs))
	for i, r := range refs {
		targets[i] = swTarget(t, "t", r, cfg, 1, stages)
	}
	panel := swPanel(t, targets)
	c := swCascade(t, panel, refs, CascadeConfig{TopK: 2, CoarsePrefix: 600})
	defer c.Close()
	if c.workers < 3 {
		setHelpers(c, 3) // force helpers into the pass even on one CPU
	}
	read := randomRead(rng, 600)

	// Warm up: settle the pools, so the goroutine baseline below includes
	// everything long-lived.
	c.Classify(read)
	base := runtime.NumGoroutine()

	// Hold every scheduler slot so the coarse pass must queue in Acquire.
	held := make([]int, c.sch.Instances())
	for i := range held {
		idx, err := c.sch.Acquire(context.Background(), sched.Task{})
		if err != nil {
			t.Fatal(err)
		}
		held[i] = idx
	}
	ctx, cancel := context.WithCancel(context.Background())
	cs, err := c.NewSessionContext(ctx, PrunePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		r    PanelResult
		done bool
	}
	ch := make(chan outcome, 1)
	go func() {
		r, done := cs.Feed(read)
		ch <- outcome{r, done}
	}()
	// Give the feed time to reach the blocked Acquire, then cancel it.
	time.Sleep(20 * time.Millisecond)
	cancel()
	got := <-ch

	if !got.done {
		t.Error("cancelled session did not report done")
	}
	if cs.Err() == nil {
		t.Error("cancelled session reports nil Err")
	}
	if cs.Promoted() {
		t.Error("cancelled session promoted survivors")
	}
	if !got.r.Undecided || got.r.Best != -1 {
		t.Errorf("cancelled verdict not undecided: %+v", got.r)
	}
	for i, r := range got.r.PerTarget {
		if r.Decision != sdtw.Continue {
			t.Errorf("target %d decided %v on a cancelled read", i, r.Decision)
		}
	}
	if r, done := cs.Feed(read); !done || r.Best != -1 {
		t.Errorf("feeding after cancellation revived the session: done=%v %+v", done, r)
	}
	for _, idx := range held {
		c.sch.Release(idx)
	}
	// The pass's participants must all have unwound: no goroutines beyond
	// the warmed baseline (the persistent helpers are part of it).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("cancelled coarse pass leaked goroutines: %d running, baseline %d", n, base)
	}
}

// TestCascadeCloseReleasesWorkers: the persistent helper set starts with
// the cascade, parks between reads, and exits on Close (which is
// idempotent).
func TestCascadeCloseReleasesWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	cfg := sdtw.DefaultIntConfig()
	// Three lane groups, so a pass has work for three participants.
	refs := make([][]int8, 33)
	for i := range refs {
		refs[i] = randomRef(rng, 800)
	}
	stages := []sdtw.Stage{{PrefixSamples: 500, Threshold: 500 * 4}}
	targets := make([]Target, len(refs))
	for i, r := range refs {
		targets[i] = swTarget(t, "t", r, cfg, 1, stages)
	}
	panel := swPanel(t, targets)
	base := runtime.NumGoroutine()
	c := swCascade(t, panel, refs, CascadeConfig{TopK: 2, CoarsePrefix: 600})
	if c.workers < 3 {
		setHelpers(c, 3) // force helpers into the pass even on one CPU
	}
	read := randomRead(rng, 600)
	c.Classify(read)
	c.Classify(read) // helpers persist and are reused, not respawned
	if n := runtime.NumGoroutine(); n < base+c.workers-1 {
		t.Fatalf("expected %d parked helpers, have %d goroutines over baseline %d", c.workers-1, n-base, base)
	}
	c.Close()
	c.Close() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("Close left %d goroutines, baseline %d", n, base)
	}
}

// runCoarsePass drives one full coarse pass (all dwell hypotheses) over
// read through the pooled pass machinery — exactly what a plain
// session's promotion scores, reusable by the allocation test and the
// benchmarks. It returns the DP cells the pass computed.
func runCoarsePass(tb testing.TB, c *Cascade, read []int16) (cells int64) {
	p := c.getPass(context.Background(), read)
	defer c.putPass(p)
	if err := p.run(); err != nil {
		tb.Fatal(err)
	}
	for k := range p.items {
		cells += int64(len(p.items[k].q)) * c.refCells
	}
	return cells
}

// TestCascadeCoarsePassAllocFree: after warmup, a full coarse pass —
// decimation, normalization, scoring every target, survivor marking —
// allocates nothing per read. The small slack absorbs the scheduler's
// amortized stat-ring growth.
func TestCascadeCoarsePassAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on channel and pool operations")
	}
	rng := rand.New(rand.NewSource(149))
	c, _ := buildBoundedCascade(t, rng, 16, 4, 0, 2000)
	defer c.Close()
	read := randomRead(rng, 2000)
	for i := 0; i < 5; i++ {
		runCoarsePass(t, c, read)
	}
	allocs := testing.AllocsPerRun(50, func() {
		runCoarsePass(t, c, read)
	})
	if allocs > 0.5 {
		t.Errorf("coarse pass allocates %.2f objects per read, want ~0", allocs)
	}
}

// BenchmarkCoarseScore measures the coarse tier in isolation — the DP
// throughput of the pass (cells/sec) and its cells per read — with the
// exact tier out of the picture.
func BenchmarkCoarseScore(b *testing.B) {
	rng := rand.New(rand.NewSource(157))
	cfg := sdtw.DefaultIntConfig()
	const n = 512
	refs := make([][]int8, n)
	for i := range refs {
		refs[i] = randomRef(rng, 800)
	}
	stages := []sdtw.Stage{{PrefixSamples: 800, Threshold: 800 * 4}}
	targets := make([]Target, n)
	for i, r := range refs {
		targets[i] = swTarget(b, "t", r, cfg, 1, stages)
	}
	panel := swPanel(b, targets)
	c := swCascade(b, panel, refs, CascadeConfig{TopK: 8})
	defer c.Close()
	read := randomRead(rng, DefaultCoarsePrefix)
	runCoarsePass(b, c, read) // warm the pools

	var cells int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells += runCoarsePass(b, c, read)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cells)/sec, "cells/sec")
	}
	b.ReportMetric(float64(cells)/float64(b.N), "coarsecells/read")
}
