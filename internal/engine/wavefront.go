package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"squigglefilter/internal/sdtw"
)

// shardBlockSamples is the wavefront's block: each stage chunk is cut
// into blocks this long, and shard k computes block b while shard k+1
// computes block b-1 from k's halo. Shorter blocks fill the pipeline
// sooner; longer ones pay fewer scheduler round trips. 256 ran faster
// than 128 and 512 on virus-30k (EXPERIMENTS.md "virus-30k across
// cores").
const shardBlockSamples = 256

// shardHelpers is the process-wide helper set every sharded pipeline
// hands its wavefronts to: GOMAXPROCS-1 helpers, started by the first
// sharded pipeline and never closed, so a Pipeline owns no goroutine and
// needs no Close however many are built and dropped. They run under
// their own frame (serveShards), so a goroutine dump tells them from a
// cascade's helpers.
var shardHelpers = sync.OnceValue(func() *helperSet {
	h := new(helperSet)
	h.arm(runtime.GOMAXPROCS(0))
	for i := 0; i < h.workers-1; i++ {
		go h.serveShards()
	}
	return h
})

// wavefront is one sharded session's intra-read state, pooled with its DP
// row: the shard views over the row, one chunk-sized halo per shard
// boundary, and the claim job that spreads a chunk's shards over the
// caller and the shard helpers. Nothing in it is allocated per chunk.
//
// Shards are claimed in ascending order and each participant runs its
// shard's blocks in order, waiting for the left neighbour's halo of each
// block — so the lowest unfinished shard never waits, and a caller whose
// handoff found every helper busy drains the shards left to right alone,
// which is the cache-blocked serial order. An instance is borrowed only
// for one block's extension, never while waiting on a halo. Given its
// left neighbour's halo a shard needs nothing to its right (the hardware
// recurrence has no intra-row dependency, internal/sdtw), so distinct
// shards' blocks run concurrently on views aliasing the session's row.
type wavefront struct {
	p     *Pipeline
	kern  *swKernel
	sr    *sdtw.Sharded
	width int
	// edges[k] carries shard k's halo to shard k+1.
	edges []edge
	// results[k] is shard k's best after the chunk's last block; errs[k]
	// is why shard k stopped early. Each is written only by shard k's
	// participant and read once the job has joined.
	results []sdtw.IntResult
	errs    []error
	job     claimJob

	// The chunk being extended, set for the duration of one extend.
	ctx       context.Context
	chunk     []int8
	blocks    int
	blockCost time.Duration
}

// edge is one shard boundary: the left shard's halo for the whole chunk,
// published block by block.
type edge struct {
	halo sdtw.Halo
	// ready counts the blocks of the current chunk whose halo is
	// published, or is edgeAborted once the left shard has unwound.
	ready atomic.Int32
	// wake holds a token after every publish, for a parked right
	// neighbour; a stale token only costs that neighbour a recheck.
	wake chan struct{}
}

const edgeAborted = -1

func newWavefront(p *Pipeline, row *sdtw.Row) *wavefront {
	sr := sdtw.ShardRow(row, p.shardWidth)
	s := sr.NumShards()
	w := &wavefront{
		p:       p,
		kern:    p.insts[0].k.(*swKernel),
		sr:      sr,
		width:   p.shardWidth,
		edges:   make([]edge, s-1),
		results: make([]sdtw.IntResult, s),
		errs:    make([]error, s),
	}
	for k := range w.edges {
		w.edges[k].wake = make(chan struct{}, 1)
	}
	w.job.body = w
	return w
}

// extend runs one stage chunk over every shard and merges the shards'
// bests in ascending order, as the unsharded sweep's scan would. Its only
// error is ctx's, when a block's instance wait was cancelled.
func (w *wavefront) extend(ctx context.Context, chunk []int8) (sdtw.IntResult, error) {
	s := w.sr.NumShards()
	w.ctx, w.chunk = ctx, chunk
	// The session never extends by an empty chunk; one empty block keeps
	// the degenerate case on the kernel's own zero-sample path.
	w.blocks = max(1, (len(chunk)+shardBlockSamples-1)/shardBlockSamples)
	// A block is priced at its share of the full-row chunk extension.
	w.blockCost = w.p.ServiceTime(len(chunk)) / time.Duration(s*w.blocks)
	for k := range w.edges {
		w.edges[k].halo.Reserve(len(chunk))
		w.edges[k].ready.Store(0)
	}
	clear(w.errs)
	w.job.reset(s)
	w.p.helpers.run(&w.job)
	w.ctx, w.chunk = nil, nil

	for _, err := range w.errs {
		if err != nil {
			return sdtw.IntResult{EndPos: -1}, err
		}
	}
	best := sdtw.IntResult{EndPos: -1}
	for k, r := range w.results {
		lo, _ := w.sr.Bounds(k)
		best = sdtw.MergeShardResult(best, r, lo)
	}
	w.sr.Row().Samples += len(chunk)
	return best, nil
}

// claim runs shard k through every block of the chunk. A cancelled
// instance wait stops the job from claiming further shards, and a shard
// that stops early marks its right edge aborted, so every shard waiting
// to its right unwinds without computing.
func (w *wavefront) claim(k int) {
	var in, out *edge
	if k > 0 {
		in = &w.edges[k-1]
	}
	if k < len(w.edges) {
		out = &w.edges[k]
	}
	shard := w.sr.Shard(k)
	refLo, refHi := w.sr.Bounds(k)
	ref := w.kern.ref[refLo:refHi]
	for b := 0; b < w.blocks; b++ {
		lo := b * shardBlockSamples
		hi := min(lo+shardBlockSamples, len(w.chunk))
		var haloIn, haloOut *sdtw.Halo
		if in != nil {
			if !in.await(int32(b + 1)) {
				break
			}
			haloIn = &sdtw.Halo{Cost: in.halo.Cost[lo:hi:hi], Run: in.halo.Run[lo:hi:hi]}
		}
		if out != nil {
			haloOut = &sdtw.Halo{Cost: out.halo.Cost[lo:hi:hi], Run: out.halo.Run[lo:hi:hi]}
		}
		var r sdtw.IntResult
		err := w.p.do(w.ctx, w.blockCost, func(*Backend) {
			r = sdtw.ExtendShard(shard, w.chunk[lo:hi], ref, w.kern.cfg, haloIn, haloOut)
		})
		if err != nil {
			w.errs[k] = err
			w.job.stop()
			break
		}
		w.results[k] = r
		if out != nil {
			out.publish(int32(b + 1))
		}
		if b == w.blocks-1 {
			return
		}
	}
	if out != nil {
		out.publish(edgeAborted)
	}
}

// await parks until the left shard has published n blocks, and reports
// false if it unwound instead. A halo still missing usually has up to a
// block's DP left, so it parks at once rather than spin.
func (e *edge) await(n int32) bool {
	for {
		switch r := e.ready.Load(); {
		case r == edgeAborted:
			return false
		case r >= n:
			return true
		}
		<-e.wake
	}
}

// publish records the edge's progress (a block count or edgeAborted) and
// wakes a parked right neighbour.
func (e *edge) publish(ready int32) {
	e.ready.Store(ready)
	select {
	case e.wake <- struct{}{}:
	default:
	}
}
