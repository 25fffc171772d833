package engine

import (
	"context"
	"fmt"
	"sync"
)

// The inter-read batched coarse tier: instead of each read promoting
// through a coarse pass of its own, up to Lanes concurrent sessions pend
// at their prefix crossing and promote together through one pass
// (Cascade.promote, the same code a plain session runs as a group of
// itself). The pass still scores every (session, dwell hypothesis)
// query against every reference, so DP cells are unchanged; what
// the group shares is the dispatch: one scheduler task per lane group of
// 16 references — carrying the composite service time of every query's
// cells — and one traversal of the reference set, instead of one of each
// per read.
//
// Survivor sets are identical to a plain session's by construction:
// every query keeps its own cost array and goes through the same
// survivorCut selection rule (DESIGN.md §12).
// TestBatchedCoarseSurvivorIdentity locks the equivalence.

// MaxBatchLanes bounds a CascadeBatch's flush group: at most this many
// sessions share one coarse pass. The bound is a latency cap, not a
// hardware limit — a pending session waits for the group to fill, and
// a flushed group's reads all wait for the whole pass.
const MaxBatchLanes = 4

// CascadeBatch groups up to Lanes concurrent sessions into shared
// coarse passes. Sessions opened through NewSession pend at their
// prefix crossing; the crossing that fills the batch (or an explicit
// Flush, or the first pending session to Finalize) promotes the whole
// group in one pass.
//
// The group's sessions must be driven from one goroutine (or externally
// synchronized): a flush promotes and replays every pending session on
// the flushing goroutine, and the per-read session types are not
// goroutine-safe. A failed flush — the flushing session's context
// cancelling mid-pass — aborts every pending session with the same
// error: the group shares one pass, so it shares its fate.
type CascadeBatch struct {
	c       *Cascade
	lanes   int
	mu      sync.Mutex
	pending []*CascadeSession
}

// NewBatch starts an inter-read batch group over the cascade. lanes is
// the flush threshold, in [1, MaxBatchLanes].
func (c *Cascade) NewBatch(lanes int) (*CascadeBatch, error) {
	if lanes < 1 || lanes > MaxBatchLanes {
		return nil, fmt.Errorf("engine: cascade batch lanes must be in [1, %d], got %d",
			MaxBatchLanes, lanes)
	}
	return &CascadeBatch{c: c, lanes: lanes}, nil
}

// Lanes returns the batch width.
func (cb *CascadeBatch) Lanes() int { return cb.lanes }

// Pending returns how many sessions are pending a flush.
func (cb *CascadeBatch) Pending() int {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return len(cb.pending)
}

// NewSession starts an incremental cascade classification of one read
// that promotes through this batch group.
func (cb *CascadeBatch) NewSession(prune PrunePolicy) (*CascadeSession, error) {
	return cb.NewSessionContext(context.Background(), prune)
}

// NewSessionContext is NewSession bound to a context. The context of
// whichever session triggers a flush governs the whole batched pass
// (the batch shares fate on cancellation).
func (cb *CascadeBatch) NewSessionContext(ctx context.Context, prune PrunePolicy) (*CascadeSession, error) {
	cs, err := cb.c.NewSessionContext(ctx, prune)
	if err != nil {
		return nil, err
	}
	cs.batch = cb
	return cs, nil
}

// Flush promotes every pending session now, on a partial batch — for
// drivers that know no more reads are coming soon. A nil return means
// every previously pending session is promoted (or there were none).
func (cb *CascadeBatch) Flush() error {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if len(cb.pending) == 0 {
		return nil
	}
	return cb.flushLocked(cb.pending[0].ctx)
}

// crossed records a session whose buffer just crossed the coarse
// prefix. When it fills the batch, the whole group flushes on this
// goroutine; otherwise the session pends. Returns the session's done
// state for feedChunk.
func (cb *CascadeBatch) crossed(cs *CascadeSession) bool {
	cb.mu.Lock()
	cs.pending = true
	cb.pending = append(cb.pending, cs)
	if len(cb.pending) >= cb.lanes {
		cb.flushLocked(cs.ctx) // a failed flush aborts every session, cs included
	}
	cb.mu.Unlock()
	return cs.done
}

// flushWith is the Finalize path: ensure cs is pending (a read shorter
// than the coarse prefix never crossed) and flush the whole group.
func (cb *CascadeBatch) flushWith(cs *CascadeSession) error {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if !cs.pending {
		cs.pending = true
		cb.pending = append(cb.pending, cs)
	}
	return cb.flushLocked(cs.ctx)
}

// flushLocked promotes every pending session as one group under ctx.
func (cb *CascadeBatch) flushLocked(ctx context.Context) error {
	err := cb.c.promote(ctx, cb.pending...)
	clear(cb.pending)
	cb.pending = cb.pending[:0]
	return err
}
