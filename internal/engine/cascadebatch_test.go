package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"squigglefilter/internal/engine/sched"
	"squigglefilter/internal/sdtw"
)

// driveBatchGroup runs a group of reads through one CascadeBatch,
// round-robin in randomized chunk sizes — the interleaved-arrival
// pattern a flow cell produces — and finalizes every session in order.
// Returns the sessions for inspection.
func driveBatchGroup(t testing.TB, cb *CascadeBatch, rng *rand.Rand, reads [][]int16) []*CascadeSession {
	t.Helper()
	sessions := make([]*CascadeSession, len(reads))
	offs := make([]int, len(reads))
	for i := range reads {
		cs, err := cb.NewSession(PrunePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = cs
	}
	for {
		progressed := false
		for i, cs := range sessions {
			if cs.Decided() || offs[i] >= len(reads[i]) {
				continue
			}
			end := offs[i] + 1 + rng.Intn(500)
			if end > len(reads[i]) {
				end = len(reads[i])
			}
			cs.Feed(reads[i][offs[i]:end])
			offs[i] = end
			progressed = true
		}
		if !progressed {
			break
		}
	}
	for _, cs := range sessions {
		cs.Finalize()
	}
	return sessions
}

// TestBatchedCoarseSurvivorIdentity is the tentpole contract of the
// batched tier: sessions promoted through a CascadeBatch — whatever
// lane count, arrival interleaving, and flush trigger (batch-full,
// Finalize of a short read, straggler Flush) — commit exactly the
// survivor sets and verdicts that sequential CascadeSessions commit on
// the same reads. Reads shorter than the coarse prefix ride along, so
// the finalize-flush path is always exercised, and the group sizes are
// deliberately not multiples of the lane count so partial flushes
// happen too.
func TestBatchedCoarseSurvivorIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	cases := []struct {
		n, topK, lanes int
		margin         int64
	}{
		{12, 2, 1, 0},
		{16, 3, 2, 0},
		{32, 4, 2, 10},
		{32, 4, 4, 0},
		{24, 6, 4, 50},
		{16, 15, 3, 0}, // TopK covers most of the panel: near-trivial survivor sets
	}
	for _, tc := range cases {
		c, _ := buildBoundedCascade(t, rng, tc.n, tc.topK, tc.margin, 1200)
		cb, err := c.NewBatch(tc.lanes)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			nReads := tc.lanes + 1 + rng.Intn(2*tc.lanes) // never a lane multiple only
			reads := make([][]int16, nReads)
			for r := range reads {
				n := 900 + rng.Intn(1500)
				if rng.Intn(4) == 0 {
					n = 200 + rng.Intn(800) // shorter than the coarse prefix
				}
				reads[r] = randomRead(rng, n)
			}
			batched := driveBatchGroup(t, cb, rng, reads)
			if p := cb.Pending(); p != 0 {
				t.Fatalf("n=%d lanes=%d trial %d: %d sessions still pending after finalize",
					tc.n, tc.lanes, trial, p)
			}
			for r, cs := range batched {
				seq, err := c.NewSession(PrunePolicy{})
				if err != nil {
					t.Fatal(err)
				}
				wantRes, _ := seq.Stream(reads[r], 0)
				gotRes := cs.Finalize() // already final; returns the snapshot
				if !reflect.DeepEqual(cs.Survivors(), seq.Survivors()) {
					t.Errorf("n=%d k=%d lanes=%d trial %d read %d (len %d): batched survivors %v != sequential %v",
						tc.n, tc.topK, tc.lanes, trial, r, len(reads[r]), cs.Survivors(), seq.Survivors())
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Errorf("n=%d k=%d lanes=%d trial %d read %d: batched verdict %+v != sequential %+v",
						tc.n, tc.topK, tc.lanes, trial, r, gotRes, wantRes)
				}
				if cs.CoarseScorings() != seq.CoarseScorings() {
					t.Errorf("read %d: batched attempted %d scorings, sequential %d",
						r, cs.CoarseScorings(), seq.CoarseScorings())
				}
			}
		}
		c.Close()
	}
}

// TestBatchedCoarseCancelMidSweep: cancelling the flushing session's
// context while the batched pass is queued behind a saturated scheduler
// aborts every pending lane with the cause — the batch shares fate —
// and the cascade keeps serving fresh sessions afterwards.
func TestBatchedCoarseCancelMidSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	c, _ := buildBoundedCascade(t, rng, 8, 2, 0, 600)
	defer c.Close()
	read := randomRead(rng, 900)
	c.Classify(read) // warm helpers so the goroutine baseline is stable
	base := runtime.NumGoroutine()

	cb, err := c.NewBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sessions := make([]*CascadeSession, 3)
	for i := range sessions {
		if sessions[i], err = cb.NewSessionContext(ctx, PrunePolicy{}); err != nil {
			t.Fatal(err)
		}
	}
	// Two lanes pend (batch not yet full) ...
	sessions[0].Feed(read)
	sessions[1].Feed(read)
	if p := cb.Pending(); p != 2 {
		t.Fatalf("expected 2 pending lanes, have %d", p)
	}
	// ... then hold every scheduler slot, so the third crossing's flush
	// blocks in Acquire, and cancel it mid-sweep.
	held := make([]int, c.sch.Instances())
	for i := range held {
		if held[i], err = c.sch.Acquire(context.Background(), sched.Task{}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan bool, 1)
	go func() {
		_, d := sessions[2].Feed(read)
		done <- d
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if d := <-done; !d {
		t.Error("flushing session did not report done after cancellation")
	}
	for _, idx := range held {
		c.sch.Release(idx)
	}
	for i, cs := range sessions {
		if cs.Err() == nil {
			t.Errorf("lane %d survived the cancelled flush with nil Err", i)
		}
		if cs.Promoted() {
			t.Errorf("lane %d promoted through a cancelled flush", i)
		}
		if res := cs.Finalize(); !res.Undecided || res.Best != -1 {
			t.Errorf("lane %d verdict not undecided after shared-fate abort: %+v", i, res)
		}
	}
	if p := cb.Pending(); p != 0 {
		t.Fatalf("cancelled flush left %d lanes pending", p)
	}
	// The cascade (and the batch group) must still serve fresh reads.
	cs, err := cb.NewSession(PrunePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := cs.Stream(read, 0); res.Undecided && cs.Err() != nil {
		t.Errorf("cascade broken after cancelled batch flush: %v", cs.Err())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("cancelled batch flush leaked goroutines: %d running, baseline %d", n, base)
	}
}

// TestCascadeCloseConcurrent: Close is safe concurrent with in-flight
// passes and with itself — the helper lifecycle holds lifeMu across
// spawn/close decisions, so the WaitGroup Add in spawnHelpers can never
// race a Wait in Close (the bug this pins: a Close landing between a
// pass's spawn decision and its Add used to return before the helpers
// existed). Run under -race in CI.
func TestCascadeCloseConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	for trial := 0; trial < 8; trial++ {
		c, _ := buildBoundedCascade(t, rng, 8, 2, 0, 600)
		read := randomRead(rng, 900)
		start := make(chan struct{})
		classified := make(chan struct{})
		go func() {
			<-start
			c.Classify(read) // races the Closes below
			close(classified)
		}()
		var closed [2]chan struct{}
		for i := range closed {
			closed[i] = make(chan struct{})
			go func(ch chan struct{}) {
				<-start
				c.Close() // idempotent and safe concurrent with Classify
				close(ch)
			}(closed[i])
		}
		close(start)
		<-classified
		<-closed[0]
		<-closed[1]
		c.Close() // and once more after everything settled
	}
}

// TestCascadeSessionOneAcquirePerLaneGroup: a plain session promotes as
// a batch of one, so its coarse pass borrows one scheduler slot per lane
// group of 16 references — every reference of the group and every dwell
// hypothesis scored inside it — not one per reference or per
// (reference, hypothesis). The panel spans a full group and a partial
// one. The exact tier schedules on its own panel's pools, so the coarse
// scheduler's completions count exactly the pass. The session's cell
// count stays the real work, padding excluded: each hypothesis's query
// length times the summed reference lengths.
func TestCascadeSessionOneAcquirePerLaneGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	const n = 21
	groups := (n + 15) / 16
	c, _ := buildBoundedCascade(t, rng, n, 3, 0, 1200)
	defer c.Close()
	if h := len(c.cfg.queryFactors()); h < 2 {
		t.Fatalf("%d dwell hypotheses; the test needs several", h)
	}
	var refCells int64
	for _, ref := range c.coarse {
		refCells += int64(len(ref))
	}
	for trial := 0; trial < 3; trial++ {
		before := c.sch.Stats().Completed
		cs, err := c.NewSession(PrunePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		read := randomRead(rng, 1500)
		cs.Stream(read, 400)
		if cs.CoarseScorings() == 0 {
			t.Fatalf("trial %d: the coarse tier never scored", trial)
		}
		if got := c.sch.Stats().Completed - before; got != int64(groups) {
			t.Errorf("trial %d: coarse pass completed %d scheduler tasks over %d references, want %d (one per lane group)",
				trial, got, n, groups)
		}
		var wantCells int64
		for _, qf := range c.cfg.queryFactors() {
			wantCells += int64((c.cfg.CoarsePrefix+qf-1)/qf) * refCells
		}
		if got := cs.CoarseDPCells(); got != wantCells {
			t.Errorf("trial %d: CoarseDPCells = %d, want len(q)·Σ refLen summed over hypotheses = %d", trial, got, wantCells)
		}
	}
}

// TestCascadePassPoolReuseOnCancel pins the pooled-pass error path: a
// pass unwound by cancellation must still return to the pool (the
// defer-based putPass), so a burst of cancelled reads does not allocate
// a fresh pass each time. Allocation-counted, so skipped under race.
func TestCascadePassPoolReuseOnCancel(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on channel and pool operations")
	}
	rng := rand.New(rand.NewSource(179))
	c, _ := buildBoundedCascade(t, rng, 16, 4, 0, 1200)
	defer c.Close()
	read := randomRead(rng, 1200)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // every Acquire under this context fails immediately

	failedPass := func() {
		p := c.getPass(cancelled)
		defer c.putPass(p)
		p.addRead(read)
		if err := p.run(); err == nil {
			t.Fatal("coarse pass under a cancelled context did not fail")
		}
	}
	for i := 0; i < 5; i++ {
		failedPass() // warm the pool through the failure path itself
	}
	allocs := testing.AllocsPerRun(50, failedPass)
	if allocs > 0.5 {
		t.Errorf("cancelled coarse pass allocates %.2f objects per read, want ~0 (pass not returning to pool?)", allocs)
	}
}

// TestCascadeBatchValidation pins the lane-count contract.
func TestCascadeBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	c, _ := buildBoundedCascade(t, rng, 8, 2, 0, 600)
	defer c.Close()
	for _, lanes := range []int{0, -1, MaxBatchLanes + 1} {
		if _, err := c.NewBatch(lanes); err == nil {
			t.Errorf("NewBatch(%d) accepted an out-of-range width", lanes)
		}
	}
	for lanes := 1; lanes <= MaxBatchLanes; lanes++ {
		cb, err := c.NewBatch(lanes)
		if err != nil {
			t.Fatalf("NewBatch(%d): %v", lanes, err)
		}
		if cb.Lanes() != lanes {
			t.Fatalf("Lanes() = %d, want %d", cb.Lanes(), lanes)
		}
	}
}

// BenchmarkCoarseBatch measures the engine-level coarse tier at panel
// scale (N=1000 targets) as batching widens: the same 4 reads scored in
// groups of B reads per pass — what NewBatch(B) flushes — versus one
// plain pass per read, isolated from the exact tier. Every row runs the
// same kernel over the same cells; reads/sec is the ratcheted figure,
// and what batching can win is dispatch amortization only (one
// scheduler slot and reference-set traversal per group, not per read).
func BenchmarkCoarseBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(191))
	cfg := sdtw.DefaultIntConfig()
	const n = 1000
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
	const groupReads = 4 // fixed workload per iteration, whatever the width
	reads := make([][]int16, groupReads)
	for i := range reads {
		reads[i] = randomRead(rng, DefaultCoarsePrefix)
	}
	scoreGroups := func(b *testing.B, lanes int) {
		for g := 0; g < len(reads); g += lanes {
			p := c.getPass(context.Background())
			for _, read := range reads[g:min(g+lanes, len(reads))] {
				p.addRead(read)
			}
			if err := p.run(); err != nil {
				b.Fatal(err)
			}
			c.putPass(p)
		}
	}

	b.Run("sequential", func(b *testing.B) {
		runCoarsePass(b, c, reads[0]) // warm pools and helpers
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, read := range reads {
				runCoarsePass(b, c, read)
			}
		}
		b.ReportMetric(float64(groupReads)*float64(b.N)/b.Elapsed().Seconds(), "reads/sec")
	})
	for _, lanes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			scoreGroups(b, lanes) // warm pools and helpers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scoreGroups(b, lanes)
			}
			b.ReportMetric(float64(groupReads)*float64(b.N)/b.Elapsed().Seconds(), "reads/sec")
		})
	}
}
