package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"squigglefilter/internal/gpu"
	"squigglefilter/internal/sdtw"
)

// TestSchedulerVerdictParity is the refactor's acceptance property: with
// every concurrency path now dispatching through the unified EDF
// scheduler, batch, session, and sharded execution must all
// produce verdicts bit-identical to serial one-instance classification —
// the pre-refactor semantics — on random workloads, with and without
// real-time deadlines.
func TestSchedulerVerdictParity(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 6; trial++ {
		ref := randomRef(rng, 600+rng.Intn(2400))
		cfg := sdtw.DefaultIntConfig()
		stages := randStages(rng)
		instances := 1 + rng.Intn(4)
		shards := 1 + rng.Intn(3)
		pipe, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, cfg) }, instances, stages)
		if err != nil {
			t.Fatal(err)
		}
		if err := pipe.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		if trial%2 == 0 {
			pipe.SetRealtime(100 * time.Millisecond)
		}
		plain, err := NewSoftware(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}

		reads := make([][]int16, 12)
		want := make([]Result, len(reads))
		for i := range reads {
			reads[i] = randomRead(rng, 100+rng.Intn(3000))
			want[i] = plain.Classify(reads[i], stages)
		}

		for i, r := range reads {
			requireResultEqual(t, "scheduler Classify", pipe.Classify(r), want[i])
		}
		batch, err := pipe.ClassifyBatch(context.Background(), reads)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range batch {
			requireResultEqual(t, "scheduler ClassifyBatch", got, want[i])
		}
		chunk := []int{1, 37, 400, 4096}[rng.Intn(4)]
		for i, r := range reads {
			sess := pipe.NewSession()
			got, _ := sess.Stream(r, chunk)
			requireResultEqual(t, "scheduler Session.Stream", got, want[i])
		}

		st := pipe.SchedStats()
		if st.Completed == 0 {
			t.Fatal("scheduler recorded no completed tasks — a path bypassed it")
		}
	}
}

// TestSchedulerMixedLoadOneInstance is the deadlock regression the
// per-block borrowing invariant exists for: sharded wavefronts, unsharded
// classifications, live sessions, and a PanelSession all contend for a
// single-instance pool concurrently (run under -race in CI). Any task
// that blocked while holding the instance would deadlock this test.
func TestSchedulerMixedLoadOneInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 1800)
	stages := []sdtw.Stage{{PrefixSamples: 700, Threshold: 700 * 3}}

	sharded, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, cfg) }, 1, stages)
	if err != nil {
		t.Fatal(err)
	}
	if err := sharded.SetShards(3); err != nil {
		t.Fatal(err)
	}
	sharded.SetRealtime(50 * time.Millisecond)
	plain, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, cfg) }, 1, stages)
	if err != nil {
		t.Fatal(err)
	}
	panel, err := NewPanel([]Target{{Name: "a", Pipeline: sharded}, {Name: "b", Pipeline: plain}})
	if err != nil {
		t.Fatal(err)
	}

	reads := make([][]int16, 8)
	for i := range reads {
		reads[i] = randomRead(rand.New(rand.NewSource(int64(i))), 400+i*150)
	}
	want := make([]Result, len(reads))
	for i := range reads {
		want[i] = plain.Classify(reads[i])
	}

	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i, r := range reads {
					switch (g + i) % 3 {
					case 0:
						requireResultEqual(t, "mixed sharded", sharded.Classify(r), want[i])
					case 1:
						requireResultEqual(t, "mixed plain", plain.Classify(r), want[i])
					default:
						ps, err := panel.NewSession(PrunePolicy{})
						if err != nil {
							t.Error(err)
							return
						}
						pr, _ := ps.Stream(r, 256)
						for ti, tr := range pr.PerTarget {
							requireResultEqual(t, "mixed panel target", tr, want[i])
							_ = ti
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("mixed sharded/unsharded/panel load deadlocked on a 1-instance pool")
	}
}

// TestClassifyBatchCancelled: cancelling mid-batch stops scheduling,
// returns the context error, and leaks no goroutine holding an instance
// (the pool serves a fresh classification afterwards).
func TestClassifyBatchCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	ref := randomRef(rng, 1200)
	stages := []sdtw.Stage{{PrefixSamples: 600, Threshold: 600 * 3}}
	pipe, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, sdtw.DefaultIntConfig()) }, 2, stages)
	if err != nil {
		t.Fatal(err)
	}
	reads := make([][]int16, 64)
	for i := range reads {
		reads[i] = randomRead(rng, 2000)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: nothing may be scheduled
	out, err := pipe.ClassifyBatch(ctx, reads)
	if err != context.Canceled {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	if len(out) != len(reads) {
		t.Fatalf("partial results slice has %d entries, want %d", len(out), len(reads))
	}
	// The pool must be fully returned: a fresh classification succeeds.
	if got := pipe.Classify(reads[0]); got.Decision == sdtw.Continue && len(got.PerStage) == 0 {
		t.Fatal("pipeline dead after cancelled batch")
	}
	// And a cancel racing a running batch must also unwind cleanly.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		_, _ = pipe.ClassifyBatch(ctx2, reads)
		close(done)
	}()
	cancel2()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("cancelled mid-batch run did not return")
	}
	if got := pipe.Classify(reads[1]); len(got.PerStage) == 0 {
		t.Fatal("pipeline dead after mid-batch cancellation")
	}
}

// TestSessionFeedCancelled: a session whose context is cancelled while
// its DP waits for an instance abandons itself — Feed reports done,
// Err records the cause, and the held instance pool stays usable.
func TestSessionFeedCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	ref := randomRef(rng, 1500)
	stages := []sdtw.Stage{{PrefixSamples: 400, Threshold: 400 * 3}}
	pipe, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, sdtw.DefaultIntConfig()) }, 1, stages)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the single instance hostage so the session's stage extension
	// must queue.
	hold := make(chan struct{})
	held := make(chan struct{})
	go func() {
		_ = pipe.do(context.Background(), 0, func(*Backend) {
			close(held)
			<-hold
		})
	}()
	<-held

	ctx, cancel := context.WithCancel(context.Background())
	sess := pipe.NewSessionContext(ctx)
	read := randomRead(rng, 1000)
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		if _, done := sess.Feed(read); !done {
			t.Error("cancelled session Feed reported not-done")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-fed:
	case <-time.After(time.Minute):
		t.Fatal("cancelled session Feed never returned")
	}
	if sess.Err() != context.Canceled {
		t.Fatalf("Session.Err = %v, want context.Canceled", sess.Err())
	}
	if sess.Decided() {
		t.Error("cancelled session must stay undecided")
	}
	close(hold)
	// Pool usable afterwards; an uncancelled session still works.
	s2 := pipe.NewSession()
	if got, _ := s2.Stream(read, 128); len(got.PerStage) == 0 {
		t.Fatal("pipeline dead after session cancellation")
	}
}

// TestServiceTimeModels: every kernel prices its chunks —
// hw exactly matching the cycle ledger its extend accumulates, gpu
// exactly matching the latency its extend accumulates, sw positive and
// monotone in chunk size.
func TestServiceTimeModels(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	ref := randomRef(rng, 2500)
	cfg := sdtw.DefaultIntConfig()
	stages := []sdtw.Stage{{PrefixSamples: 2300, Threshold: 1 << 30}}
	read := randomRead(rng, 2300)

	for _, tc := range []struct {
		name  string
		build func() (*Backend, error)
	}{
		{"hw", func() (*Backend, error) { return NewHardware(ref, cfg) }},
		{"gpu", func() (*Backend, error) { return NewGPU(ref, cfg, gpu.TitanXP()) }},
	} {
		b, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		res := b.Classify(read, stages)
		want := b.k.serviceTime(2300)
		if res.Stats.Latency != want {
			t.Errorf("%s: measured stage latency %v != serviceTime model %v", tc.name, res.Stats.Latency, want)
		}
	}

	sw, err := NewSoftware(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	small, big := sw.k.serviceTime(100), sw.k.serviceTime(2000)
	if small <= 0 || big <= small {
		t.Errorf("sw self-calibrated service time not positive/monotone: %v, %v", small, big)
	}

	pipe, err := NewPipeline(func() (*Backend, error) { return NewHardware(ref, cfg) }, 1, stages)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.ServiceTime(2300) != b2ServiceTime(t, ref, cfg, 2300) {
		t.Error("Pipeline.ServiceTime does not expose the kernel model")
	}
}

func b2ServiceTime(t *testing.T, ref []int8, cfg sdtw.IntConfig, n int) time.Duration {
	t.Helper()
	b, err := NewHardware(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b.k.serviceTime(n)
}
