package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"squigglefilter/internal/engine/sched"
	"squigglefilter/internal/sdtw"
)

// Pipeline schedules reads across a pool of back-end instances — the
// software analogue of the accelerator's NumTiles independent tiles. All
// concurrency paths — one-shot Classify, ClassifyBatch, live Sessions and
// PanelSessions, and the sharded (shard, block) wavefront — dispatch
// their DP work through one earliest-deadline-first scheduler
// (internal/engine/sched): a task borrows an instance
// exclusively for the duration of one pure-compute extension and never
// blocks while holding it, so any mix of workloads shares even a
// 1-instance pool without deadlock.
type Pipeline struct {
	stages []sdtw.Stage
	sch    *sched.Scheduler
	insts  []*Backend
	n      int
	refLen int
	// rows pools sessions' DP rows and staging buffers, which outlive any
	// one instance borrow (the session parks its row like the hardware
	// parks rows in DRAM between stages).
	rows sync.Pool
	// shardWidth > 0 selects the sharded execution path (SetShards): one
	// read's DP row splits into reference shards whose (shard, block)
	// tasks wavefront across the instance pool — intra-read parallelism.
	shardWidth int
	shards     int
	// helpers joins the wavefronts (shardHelpers once sharded).
	helpers *helperSet
	// rtWindow, when positive, is the real-time decision window in
	// nanoseconds: scheduler tasks get deadline now+window, making EDF
	// prefer the most urgent channel's work (SetRealtime).
	rtWindow atomic.Int64
}

// NewPipeline builds instances back-ends via factory and programs them all
// with the same stage schedule. instances <= 0 means 1.
func NewPipeline(factory func() (*Backend, error), instances int, stages []sdtw.Stage) (*Pipeline, error) {
	if err := ValidateStages(stages); err != nil {
		return nil, err
	}
	if instances <= 0 {
		instances = 1
	}
	insts := make([]*Backend, instances)
	refLen := 0
	for i := 0; i < instances; i++ {
		b, err := factory()
		if err != nil {
			return nil, fmt.Errorf("engine: building backend instance %d: %w", i, err)
		}
		if i == 0 {
			refLen = b.RefLen()
		} else if b.RefLen() != refLen {
			return nil, fmt.Errorf("engine: backend instance %d has reference length %d, want %d", i, b.RefLen(), refLen)
		}
		insts[i] = b
	}
	p := &Pipeline{
		stages: stages,
		sch:    sched.New(instances),
		insts:  insts,
		n:      instances,
		refLen: refLen,
		shards: 1,
	}
	p.rows.New = func() any { return newSessionState(sdtw.NewRow(refLen)) }
	return p, nil
}

// SetShards configures reference-sharded execution: every classification
// splits its DP row into shards of width ceil(RefLen/shards) and runs
// each stage chunk's shards as a wavefront (wavefront.go) on the caller
// and the process-wide shard helpers, borrowing an instance per (shard,
// block) task, so per-read latency shrinks with the shard count instead
// of only batch throughput scaling with it. shards <= 1 restores the
// unsharded path. The first sharded pipeline starts the shard helpers,
// GOMAXPROCS-1 of them at that moment, which live for the process.
//
// It errors when the pipeline's back-ends cannot extend reference shards —
// only the software back-end can; the hardware model shards across tiles
// inside the device instead (NewHardwareTiles). Configure once before
// classifying; SetShards is not safe to call concurrently with
// classification. Sharded and unsharded verdicts are bit-identical by
// construction (property-tested in shard_test.go).
func (p *Pipeline) SetShards(shards int) error {
	if shards <= 1 {
		p.shards, p.shardWidth = 1, 0
		return nil
	}
	// Every instance comes from the same factory; inspecting one suffices.
	if _, ok := p.insts[0].k.(*swKernel); !ok {
		return fmt.Errorf("engine: %s back-end cannot extend reference shards (hw shards across tiles via NewHardwareTiles instead)", p.insts[0].Name())
	}
	width := sdtw.ShardWidth(p.refLen, shards)
	if width >= p.refLen {
		p.shards, p.shardWidth = 1, 0
		return nil
	}
	p.shards = (p.refLen + width - 1) / width
	p.shardWidth = width
	p.helpers = shardHelpers()
	return nil
}

// SetRealtime configures the real-time decision window: every scheduler
// task submitted after the call carries deadline now+window, so the EDF
// queue serves the most urgent channel first and SchedStats counts
// deadline misses. window is the delivery cadence a live loop must keep up
// with (one chunk period, ~0.1 s on a MinION channel); <= 0 restores
// best-effort FIFO scheduling. Safe to call concurrently.
func (p *Pipeline) SetRealtime(window time.Duration) {
	if window < 0 {
		window = 0
	}
	p.rtWindow.Store(int64(window))
}

// Shards returns the configured reference shard count (1 when unsharded).
func (p *Pipeline) Shards() int { return p.shards }

// Workers returns the number of back-end instances.
func (p *Pipeline) Workers() int { return p.n }

// RefLen returns the programmed reference length in samples.
func (p *Pipeline) RefLen() int { return p.refLen }

// Stages returns a copy of the stage schedule.
func (p *Pipeline) Stages() []sdtw.Stage {
	out := make([]sdtw.Stage, len(p.stages))
	copy(out, p.stages)
	return out
}

// ServiceTime is the instances' modeled cost of extending a DP row by one
// normalized stage chunk of chunkSamples samples: exact from the cycle
// ledger for hw, from the calibrated device envelope for gpu, and
// self-calibrated for sw. It prices scheduler tasks so utilization and
// deadlines are meaningful, and the virtual-time flow cell
// (internal/minion) prices its tasks with it.
func (p *Pipeline) ServiceTime(chunkSamples int) time.Duration {
	if chunkSamples <= 0 {
		return 0
	}
	// Every instance comes from the same factory; one kernel prices all.
	return p.insts[0].k.serviceTime(chunkSamples)
}

// SchedStats snapshots the scheduler's accounting: utilization, completed
// and late task counts, and wait/latency percentiles over recent tasks.
func (p *Pipeline) SchedStats() sched.Stats { return p.sch.Stats() }

// task assembles the scheduler task for a chunk of the given size,
// attaching the real-time deadline when one is configured.
func (p *Pipeline) task(cost time.Duration) sched.Task {
	t := sched.Task{Cost: cost}
	if w := p.rtWindow.Load(); w > 0 {
		t.Deadline = p.sch.Now() + time.Duration(w)
	}
	return t
}

// do borrows an instance through the scheduler for one pure-compute call.
func (p *Pipeline) do(ctx context.Context, cost time.Duration, fn func(*Backend)) error {
	idx, err := p.sch.Acquire(ctx, p.task(cost))
	if err != nil {
		return err
	}
	defer p.sch.Release(idx)
	fn(p.insts[idx])
	return nil
}

// NewSession starts an incremental classification scheduled over the
// instance pool: the session's DP row and stage buffer park inside the
// session (like the hardware's DRAM-parked rows), and an instance is
// borrowed only for the duration of each stage-boundary DP extension, so
// arbitrarily many live channels can hold open sessions over n instances.
// Sessions are safe to drive from concurrent goroutines (one goroutine
// per session); the scheduler serializes the DP work.
func (p *Pipeline) NewSession() *Session {
	return p.NewSessionContext(context.Background())
}

// NewSessionContext is NewSession bound to a context: a Feed waiting for
// an instance returns when ctx is cancelled (the session abandons itself
// and Session.Err reports the cause), so a stuck or shut-down consumer
// cannot leak a blocked channel goroutine.
func (p *Pipeline) NewSessionContext(ctx context.Context) *Session {
	ps := p.rows.Get().(*sessionState)
	ps.row.Reset()
	release := func(ps *sessionState) { p.rows.Put(ps) }
	if p.shardWidth > 0 {
		w := ps.wave
		if w == nil || w.width != p.shardWidth {
			w = newWavefront(p, ps.row)
			ps.wave = w
		}
		return newSession(p.stages, ps, func(_ *sdtw.Row, chunk []int8, _ *Stats) (sdtw.IntResult, error) {
			return w.extend(ctx, chunk)
		}, release)
	}
	return newSession(p.stages, ps, func(row *sdtw.Row, chunk []int8, st *Stats) (sdtw.IntResult, error) {
		var r sdtw.IntResult
		err := p.do(ctx, p.ServiceTime(len(chunk)), func(b *Backend) {
			r = b.k.extend(row, chunk, st)
		})
		return r, err
	}, release)
}

// Classify classifies one read as a session fed the whole read once:
// each stage chunk borrows a scheduler instance, or, with SetShards
// configured, wavefronts its shards across the pool, so even a single
// classification uses every idle instance.
func (p *Pipeline) Classify(samples []int16) Result {
	sess := p.NewSession()
	sess.Feed(samples)
	return sess.Finalize()
}

// classify is Classify under a context: the single read path every
// concurrent entry point funnels through. Its only error is ctx's.
func (p *Pipeline) classify(ctx context.Context, samples []int16) (Result, error) {
	sess := p.NewSessionContext(ctx)
	sess.Feed(samples)
	res := sess.Finalize()
	return res, sess.Err()
}

// fanOut runs fn(i) for i in [0, n) over a bounded set of participants
// claiming reads through one claimJob, each dispatching through the
// scheduler — the one fan-out helper behind ClassifyBatch. It stops
// claiming once ctx is cancelled.
func (p *Pipeline) fanOut(ctx context.Context, n int, fn func(i int)) {
	j := &claimJob{}
	j.body = claimFunc(func(i int) {
		if ctx.Err() != nil {
			j.stop()
			return
		}
		fn(i)
	})
	j.reset(n)
	// Twice the instances keeps the EDF queue fed while results drain.
	j.runSpawned(min(2*p.n, n))
}

// ClassifyBatch classifies a batch of reads concurrently across the
// instance pool, returning results in input order. With SetShards
// configured, each read additionally wavefronts its shards across the
// pool, so small batches still keep every instance busy. On context
// cancellation it stops scheduling new reads, abandons in-flight ones,
// and returns the context's error alongside the partial results (reads
// never scheduled hold the zero Result).
func (p *Pipeline) ClassifyBatch(ctx context.Context, reads [][]int16) ([]Result, error) {
	out := make([]Result, len(reads))
	p.fanOut(ctx, len(reads), func(i int) {
		if r, err := p.classify(ctx, reads[i]); err == nil {
			out[i] = r
		}
	})
	return out, ctx.Err()
}
