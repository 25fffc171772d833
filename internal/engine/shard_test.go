package engine

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"squigglefilter/internal/engine/sched"
	"squigglefilter/internal/hw"
	"squigglefilter/internal/sdtw"
)

// randStages builds a random 1-3 stage schedule.
func randStages(rng *rand.Rand) []sdtw.Stage {
	stages := make([]sdtw.Stage, 1+rng.Intn(3))
	prefix := 0
	for i := range stages {
		prefix += 200 + rng.Intn(900)
		stages[i] = sdtw.Stage{PrefixSamples: prefix, Threshold: int32(rng.Intn(prefix * 6))}
	}
	return stages
}

func requireResultEqual(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Decision != want.Decision || got.Cost != want.Cost ||
		got.EndPos != want.EndPos || got.SamplesUsed != want.SamplesUsed {
		t.Fatalf("%s diverged: got {%v cost=%d end=%d used=%d}, want {%v cost=%d end=%d used=%d}",
			label, got.Decision, got.Cost, got.EndPos, got.SamplesUsed,
			want.Decision, want.Cost, want.EndPos, want.SamplesUsed)
	}
	if !reflect.DeepEqual(got.PerStage, want.PerStage) {
		t.Fatalf("%s per-stage records diverged:\ngot  %+v\nwant %+v", label, got.PerStage, want.PerStage)
	}
}

// TestShardedPipelineParity is the engine's sharding acceptance property:
// over random schedules, reads, shard counts (including shards beyond the
// reference length), and random streaming chunkings, the sharded pipeline
// path — one-shot, batch, and incremental sessions — is bit-identical to
// the unsharded software back-end.
func TestShardedPipelineParity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 2400)
	plain, err := NewSoftware(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 12; trial++ {
		stages := randStages(rng)
		shards := []int{2, 3, 5, len(ref), len(ref) + 50}[rng.Intn(5)]
		pipe, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, cfg) }, 3, stages)
		if err != nil {
			t.Fatal(err)
		}
		if err := pipe.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		reads := make([][]int16, 6)
		for i := range reads {
			reads[i] = randomRead(rng, 200+rng.Intn(3000))
		}
		want := make([]Result, len(reads))
		for i, r := range reads {
			want[i] = plain.Classify(r, stages)
		}
		for i, r := range reads {
			requireResultEqual(t, "sharded Classify", pipe.Classify(r), want[i])
		}
		batch, berr := pipe.ClassifyBatch(context.Background(), reads)
		if berr != nil {
			t.Fatal(berr)
		}
		for i, got := range batch {
			requireResultEqual(t, "sharded ClassifyBatch", got, want[i])
		}
		// Streaming sessions with a random chunk size, including 1-sample
		// deliveries.
		chunk := []int{1, 7, 173, 400, 4096}[rng.Intn(5)]
		for i, r := range reads {
			sess := pipe.NewSession()
			got, _ := sess.Stream(r, chunk)
			requireResultEqual(t, "sharded Session.Stream", got, want[i])
		}
	}
}

// TestShardedPipelineConcurrent drives many sharded classifications from
// concurrent goroutines over a small instance pool — under -race this is
// the wavefront scheduler's concurrency check (shard tasks of different
// reads interleave over the same instances).
func TestShardedPipelineConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 1800)
	stages := []sdtw.Stage{{PrefixSamples: 1100, Threshold: 1100 * 3}}
	pipe, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, cfg) }, 2, stages)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.SetShards(4); err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	reads := make([][]int16, goroutines)
	want := make([]Result, goroutines)
	for i := range reads {
		reads[i] = randomRead(rng, 1300)
		want[i] = pipe.Classify(reads[i])
	}
	var wg sync.WaitGroup
	got := make([]Result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = pipe.Classify(reads[g])
		}(g)
	}
	wg.Wait()
	for g := range got {
		requireResultEqual(t, "concurrent sharded Classify", got[g], want[g])
	}
}

// TestHardwareTilesBackendParity runs the multi-tile hardware back-end
// against the software truth over random schedules and chunkings, and
// checks the halo traffic reaches Stats.DRAMBytes — the end-to-end form of
// the hw-level TileGroup tests.
func TestHardwareTilesBackendParity(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 2600)
	plain, err := NewSoftware(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := NewHardwareTiles(ref, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	sawDRAM := false
	for trial := 0; trial < 10; trial++ {
		stages := randStages(rng)
		read := randomRead(rng, 300+rng.Intn(2600))
		want := plain.Classify(read, stages)
		got := tiles.Classify(read, stages)
		requireResultEqual(t, "NewHardwareTiles Classify", got, want)
		if got.Stats.Cycles <= 0 {
			t.Fatalf("trial %d: multi-tile backend reported no cycles", trial)
		}
		if got.Stats.DRAMBytes > 0 {
			sawDRAM = true
		}
		sess, err := tiles.NewSession(stages)
		if err != nil {
			t.Fatal(err)
		}
		streamed, _ := sess.Stream(read, 300)
		requireResultEqual(t, "NewHardwareTiles Session", streamed, want)
	}
	if !sawDRAM {
		t.Error("no trial reported halo DRAM traffic from the tile group")
	}
}

// TestNewHardwareTilesAuto pins the auto-sizing and fallback rules: a
// reference over one tile's buffer auto-gangs tiles, one that fits with
// tiles <= 1 stays a plain tile, and a reference beyond the whole device
// still errors.
func TestNewHardwareTilesAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	cfg := sdtw.DefaultIntConfig()
	long := randomRef(rng, hw.RefBufferBytes+2000)
	if _, err := NewHardware(long, cfg); err == nil {
		t.Fatal("single-tile backend accepted an over-length reference")
	}
	b, err := NewHardwareTiles(long, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.RefLen() != len(long) {
		t.Errorf("RefLen = %d, want %d", b.RefLen(), len(long))
	}
	read := randomRead(rng, 64)
	stages := []sdtw.Stage{{PrefixSamples: 64, Threshold: 1 << 30}}
	plain, err := NewSoftware(long, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireResultEqual(t, "long-reference NewHardwareTiles", b.Classify(read, stages), plain.Classify(read, stages))

	if _, err := NewHardwareTiles(make([]int8, hw.NumTiles*hw.RefBufferBytes+1), cfg, 0); err == nil {
		t.Error("reference beyond the whole device accepted")
	}
}

// TestPanelShardedParity threads sharding through the panel layer:
// targets whose pipelines wavefront their shards produce panel verdicts
// (one-shot and streamed sessions) bit-identical to unsharded targets.
func TestPanelShardedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	cfg := sdtw.DefaultIntConfig()
	stages := []sdtw.Stage{{PrefixSamples: 900, Threshold: 1 << 30}}
	build := func(ref []int8, shards int) Target {
		p, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, cfg) }, 2, stages)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SetShards(shards); err != nil {
			t.Fatal(err)
		}
		return Target{Name: "t", Pipeline: p}
	}
	refA, refB := randomRef(rng, 1400), randomRef(rng, 1700)
	plain, err := NewPanel([]Target{build(refA, 1), build(refB, 1)})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewPanel([]Target{build(refA, 3), build(refB, 4)})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		read := randomRead(rng, 300+rng.Intn(1500))
		want := plain.Classify(read)
		got := sharded.Classify(read)
		if got.Best != want.Best || got.Undecided != want.Undecided {
			t.Fatalf("trial %d: sharded panel {best=%d und=%v} != plain {best=%d und=%v}",
				trial, got.Best, got.Undecided, want.Best, want.Undecided)
		}
		for ti := range want.PerTarget {
			requireResultEqual(t, "sharded panel target", got.PerTarget[ti], want.PerTarget[ti])
		}
		sess, err := sharded.NewSession(PrunePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		streamed, _ := sess.Stream(read, 250)
		if streamed.Best != want.Best || streamed.Undecided != want.Undecided {
			t.Fatalf("trial %d: sharded panel session {best=%d und=%v} != plain {best=%d und=%v}",
				trial, streamed.Best, streamed.Undecided, want.Best, want.Undecided)
		}
	}
}

// TestSetShardsValidation: shard counts degrade and unsupported back-ends
// are refused.
func TestSetShardsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 900)
	stages := []sdtw.Stage{{PrefixSamples: 500, Threshold: 500 * 3}}

	swPipe, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, cfg) }, 2, stages)
	if err != nil {
		t.Fatal(err)
	}
	if err := swPipe.SetShards(4); err != nil || swPipe.Shards() != 4 {
		t.Errorf("SetShards(4): err=%v shards=%d", err, swPipe.Shards())
	}
	if err := swPipe.SetShards(1); err != nil || swPipe.Shards() != 1 {
		t.Errorf("SetShards(1): err=%v shards=%d", err, swPipe.Shards())
	}

	hwPipe, err := NewPipeline(func() (*Backend, error) { return NewHardware(ref, cfg) }, 1, stages)
	if err != nil {
		t.Fatal(err)
	}
	if err := hwPipe.SetShards(2); err == nil {
		t.Error("hardware pipeline accepted pipeline-level sharding (tiles shard via NewHardwareTiles)")
	}
	if err := hwPipe.SetShards(1); err != nil {
		t.Errorf("SetShards(1) must always succeed, got %v", err)
	}
}

// TestShardedSessionCancelUnwinds cancels a sharded session's wavefront
// at two points: while the left shard waits for an instance with the
// right shard parked on its halo, and mid chunk, once the left shard's
// first block is done. Either way the session reports the context's
// error with the last evaluated stage's verdict, every participant
// unwinds (no goroutine outlives 100 such reads), and the pipeline's
// next session is bit-identical to the unsharded kernel. Stage 2 follows
// stage 1 at once, so every read also checks that a helper that has just
// left one chunk joins the next.
func TestShardedSessionCancelUnwinds(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 8000)
	// Stage 1 always continues, so the cancelled second stage leaves its
	// verdict standing; stage 2 is four blocks per shard.
	stages := []sdtw.Stage{{PrefixSamples: 600, Threshold: 1 << 30}, {PrefixSamples: 1600, Threshold: 1600 * 4}}
	pipe, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, cfg) }, 1, stages)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.SetShards(2); err != nil {
		t.Fatal(err)
	}
	// A helper of the test's own, so the right shard runs beside the left
	// one even on one CPU.
	var hs helperSet
	hs.init(2)
	defer hs.close()
	pipe.helpers = &hs

	plain, err := NewSoftware(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	read := randomRead(rng, 1600)
	want := plain.Classify(read, stages)
	if len(want.PerStage) != 2 {
		t.Fatalf("fixture decided after %d stages, want 2", len(want.PerStage))
	}
	requireResultEqual(t, "warm-up sharded Classify", pipe.Classify(read), want)

	const (
		acquireWait = "(*wavefront).claim("
		haloWait    = "(*edge).await("
		queued      = "(*Scheduler).Acquire("
	)
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		midChunk := i%2 == 1
		ctx, cancel := context.WithCancel(context.Background())
		sess := pipe.NewSessionContext(ctx)
		if _, done := sess.Feed(read[:600]); done {
			t.Fatal("stage 1 decided")
		}
		held, err := pipe.sch.Acquire(context.Background(), sched.Task{})
		if err != nil {
			t.Fatal(err)
		}
		fed := make(chan Result, 1)
		go func() {
			r, _ := sess.Feed(read[600:])
			fed <- r
		}()
		if n := waitGoroutines("select", acquireWait, 1); n != 1 {
			t.Fatalf("read %d: %d shards waiting for an instance, want the left one", i, n)
		}
		if n := waitGoroutines("chan receive", haloWait, 1); n != 1 {
			t.Fatalf("read %d: %d shards parked on a halo, want the right one", i, n)
		}
		if midChunk {
			// A second holder queues behind the left shard's first block.
			// The right shard cannot queue before that block's halo is
			// out, which is after its release, so the holder is granted
			// the instance the moment the block is done, and the cancel
			// lands with the chunk part computed and no shard holding an
			// instance.
			next := make(chan int)
			go func() {
				idx, err := pipe.sch.Acquire(context.Background(), sched.Task{})
				if err != nil {
					panic(err)
				}
				next <- idx
			}()
			if n := waitGoroutines("select", queued, 2); n != 2 {
				t.Fatalf("read %d: %d instance waits queued, want the left shard's and the holder's", i, n)
			}
			pipe.sch.Release(held)
			held = <-next
		}
		cancel()
		pipe.sch.Release(held)
		got := <-fed
		if sess.Err() != context.Canceled {
			t.Fatalf("read %d (mid-chunk %v): Err %v, want %v", i, midChunk, sess.Err(), context.Canceled)
		}
		if got.Decision != sdtw.Continue || !reflect.DeepEqual(got.PerStage, want.PerStage[:1]) ||
			got.Cost != want.PerStage[0].Cost || got.SamplesUsed != 600 {
			t.Fatalf("read %d (mid-chunk %v): verdict %+v, want stage 1's %+v", i, midChunk, got, want.PerStage[0])
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("100 cancelled wavefronts left %d goroutines, baseline %d", n, base)
	}
	got := pipe.Classify(read)
	requireResultEqual(t, "sharded Classify after the cancellations", got, want)
	if got.Stats != want.Stats {
		t.Errorf("stats after the cancellations %+v, want %+v", got.Stats, want.Stats)
	}
}
