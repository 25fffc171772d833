// Package sched is the engine's single task scheduler: every piece of DP
// work the pipeline dispatches — one-shot classifications, batch reads,
// stream jobs, session stage extensions, panel-session fan-outs, and the
// sharded wavefront's (shard, block) tasks — acquires a back-end instance
// through one earliest-deadline-first queue instead of through bespoke
// worker loops.
//
// Two twins share the EDF ordering rule:
//
//   - Scheduler is the concurrent dispatcher real pipelines run on: tasks
//     block in Acquire until the queue grants them an instance, run their
//     DP on the caller's goroutine, and Release the instance back. It is
//     context-aware (a cancelled waiter leaves the queue) and accounts
//     wall-clock wait/latency, lateness against deadlines, and instance
//     utilization.
//
//   - Virtual (virtual.go) is the deterministic virtual-time twin: the
//     same non-preemptive EDF policy over the same multi-server pool,
//     driven by an event loop instead of goroutines, so a 512-channel
//     flow-cell simulation measures queueing delay and deadline misses
//     reproducibly — the paper's "keeps up with the sequencer" verdict as
//     an output, not an input.
//
// Tasks never block while holding an instance (they are pure DP compute),
// which is the invariant that keeps any mix of sharded, unsharded, and
// panel work deadlock-free on even a 1-instance pool — the same invariant
// the per-block borrowing of the sharded wavefront was designed around.
package sched

import (
	"container/heap"
	"context"
	"math"
	"sync"
	"time"

	"squigglefilter/internal/metrics"
)

// Task describes one unit of work submitted to a Scheduler.
type Task struct {
	// Deadline is the absolute deadline on the scheduler's clock
	// (durations since New). Zero means best-effort: the task sorts after
	// every deadlined task, FIFO among its peers.
	Deadline time.Duration
	// Cost is the modeled service time from the back-end's cost model
	// (ServiceTime); zero when unknown. It feeds the modeled-busy
	// accounting that lets utilization be compared against the virtual
	// twin.
	Cost time.Duration
}

// waiter is one queued Acquire call.
type waiter struct {
	deadline  time.Duration // 0 = best-effort (+inf)
	seq       uint64
	submitted time.Duration
	cost      time.Duration
	grant     chan int // buffered 1; receives the granted instance index
	cancelled bool     // guarded by Scheduler.mu; lazily removed from the heap
	grantedAt time.Duration
	index     int // heap index
}

// waiterPool recycles waiters (and their grant channels) across Acquire
// calls: the cascade's coarse tier issues one Acquire per target per
// read — thousands per read at panel scale — and pooling is what keeps
// that loop allocation-free. A waiter returns to the pool only once no
// other goroutine can touch it: after Release's accounting, or after a
// cancelled Acquire has provably withdrawn it (grant drained, or removed
// from the queue under mu). Its grant channel is empty on every return
// path, so reuse never observes a stale grant.
var waiterPool = sync.Pool{
	New: func() any { return &waiter{grant: make(chan int, 1)} },
}

func getWaiter(deadline, cost, submitted time.Duration) *waiter {
	w := waiterPool.Get().(*waiter)
	w.deadline = deadline
	w.cost = cost
	w.submitted = submitted
	w.cancelled = false
	w.grantedAt = 0
	return w
}

// edfHeap orders waiters by (deadline, seq); deadline 0 sorts last.
type edfHeap []*waiter

func (h edfHeap) Len() int { return len(h) }
func (h edfHeap) Less(i, j int) bool {
	di, dj := h[i].deadline, h[j].deadline
	if di == 0 {
		di = math.MaxInt64
	}
	if dj == 0 {
		dj = math.MaxInt64
	}
	if di != dj {
		return di < dj
	}
	return h[i].seq < h[j].seq
}
func (h edfHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *edfHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *edfHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// statWindow bounds the latency/wait sample reservoirs: percentiles are
// computed over the most recent statWindow completions, which keeps a
// long-lived pipeline's scheduler O(1) in memory.
const statWindow = 1 << 16

// Scheduler is the concurrent EDF dispatcher over a pool of instances
// (identified by index 0..n-1; the owner maps indices to back-ends). It is
// safe for concurrent use.
type Scheduler struct {
	mu    sync.Mutex
	epoch time.Time
	queue edfHeap
	free  []int
	n     int
	seq   uint64

	// completion accounting (guarded by mu)
	completed   int64
	late        int64
	busy        time.Duration // wall time instances spent running tasks
	modeled     time.Duration // sum of task Costs (the cost-model's view)
	waits, lats ring
	// running maps a granted instance index to the waiter it is serving,
	// for completion accounting at Release time.
	running map[int]*waiter
}

// ringSegment is the ring's allocation unit: 4 KB of samples.
const ringSegment = 1 << 9

// ring keeps the most recent statWindow samples. Its storage comes in
// fixed segments allocated as it first fills, so a scheduler that records
// few tasks stays small, and growth never copies: a sample costs its 8
// bytes once, however many tasks a read takes, where a doubling slice
// allocated several times the bytes it kept.
type ring struct {
	segs []*[ringSegment]float64
	n    int // samples held, up to statWindow
	next int
}

func (r *ring) add(v float64) {
	if r.next == len(r.segs)*ringSegment {
		r.segs = append(r.segs, new([ringSegment]float64))
	}
	r.segs[r.next/ringSegment][r.next%ringSegment] = v
	r.next = (r.next + 1) % statWindow
	r.n = min(r.n+1, statWindow)
}

// snapshot copies the held samples out, in storage order.
func (r *ring) snapshot() []float64 {
	out := make([]float64, r.n)
	for i := range out {
		out[i] = r.segs[i/ringSegment][i%ringSegment]
	}
	return out
}

// New builds a scheduler over instances indices 0..instances-1.
// instances <= 0 means 1.
func New(instances int) *Scheduler {
	if instances <= 0 {
		instances = 1
	}
	free := make([]int, instances)
	for i := range free {
		free[i] = i
	}
	//lint:allow walltime Scheduler is the wall-clock dispatcher by design; its epoch anchors Now() and the deterministic twin is Virtual (virtual.go)
	return &Scheduler{epoch: time.Now(), free: free, n: instances}
}

// Instances returns the pool size.
func (s *Scheduler) Instances() int { return s.n }

// Now returns the scheduler clock: wall time since New. Deadlines are
// expressed on this clock.
//
//lint:allow walltime the one sanctioned wall-clock read: every deadline and stat derives from this accessor, and Virtual overrides it with event time
func (s *Scheduler) Now() time.Duration { return time.Since(s.epoch) }

// Acquire queues the task and blocks until the EDF queue grants it an
// instance, returning the instance index. The caller must Release the
// index when its DP work is done, and must not block on anything else
// while holding it — that invariant is what keeps mixed sharded/unsharded
// load deadlock-free on small pools. On context cancellation the task
// leaves the queue and Acquire returns the context's error; a context
// already done when Acquire is called never queues, so it never gets an
// instance.
func (s *Scheduler) Acquire(ctx context.Context, t Task) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	w := getWaiter(t.Deadline, t.Cost, s.Now())
	s.mu.Lock()
	w.seq = s.seq
	s.seq++
	heap.Push(&s.queue, w)
	s.dispatch()
	s.mu.Unlock()

	select {
	case idx := <-w.grant:
		return idx, nil
	case <-ctx.Done():
	}
	// Cancelled: either withdraw from the queue, or — if a grant raced the
	// cancellation — hand the instance straight back.
	s.mu.Lock()
	select {
	case idx := <-w.grant:
		delete(s.running, idx)
		s.free = append(s.free, idx)
		s.dispatch()
		waiterPool.Put(w)
	default:
		w.cancelled = true
		if w.index >= 0 && w.index < len(s.queue) && s.queue[w.index] == w {
			heap.Remove(&s.queue, w.index)
			waiterPool.Put(w)
		}
		// Not in the queue and not granted cannot happen under mu (a
		// popped waiter has its grant sent before mu is released), but if
		// it ever did, the cancelled flag makes dispatch drop the waiter
		// and the pool simply forgets it — never a double-put.
	}
	s.mu.Unlock()
	return 0, ctx.Err()
}

// Release returns an instance to the pool and records the completion: the
// task's wait (submit to grant), latency (submit to finish), lateness
// against its deadline, and busy time.
func (s *Scheduler) Release(idx int) {
	now := s.Now()
	s.mu.Lock()
	if w := s.findRunning(idx); w != nil {
		s.completed++
		if w.deadline > 0 && now > w.deadline {
			s.late++
		}
		s.busy += now - w.grantedAt
		s.modeled += w.cost
		s.waits.add((w.grantedAt - w.submitted).Seconds())
		s.lats.add((now - w.submitted).Seconds())
		waiterPool.Put(w)
	}
	s.free = append(s.free, idx)
	s.dispatch()
	s.mu.Unlock()
}

func (s *Scheduler) findRunning(idx int) *waiter {
	if s.running == nil {
		return nil
	}
	w := s.running[idx]
	delete(s.running, idx)
	return w
}

// dispatch grants free instances to the earliest-deadline waiters. Caller
// holds mu.
func (s *Scheduler) dispatch() {
	for len(s.free) > 0 && s.queue.Len() > 0 {
		w := heap.Pop(&s.queue).(*waiter)
		if w.cancelled {
			continue
		}
		idx := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		w.grantedAt = s.Now()
		if s.running == nil {
			s.running = make(map[int]*waiter, s.n)
		}
		s.running[idx] = w
		w.grant <- idx
	}
}

// Stats is a snapshot of the scheduler's accounting.
type Stats struct {
	// Instances is the pool size.
	Instances int
	// Completed and Late count finished tasks and those that finished
	// after their deadline (best-effort tasks are never late).
	Completed, Late int64
	// Busy is the wall time instances spent running tasks; Modeled is the
	// same interval as the cost models predicted it.
	Busy, Modeled time.Duration
	// Span is the scheduler's age — the denominator of Utilization.
	Span time.Duration
	// Wait summarizes submit-to-grant queueing delay, Latency
	// submit-to-finish decision latency, both in seconds over the most
	// recent completions (a bounded window).
	Wait, Latency metrics.Summary
}

// Utilization is Busy / (Span * Instances), the fraction of pool capacity
// spent running tasks.
func (st Stats) Utilization() float64 {
	if st.Span <= 0 || st.Instances <= 0 {
		return 0
	}
	u := st.Busy.Seconds() / (st.Span.Seconds() * float64(st.Instances))
	if u > 1 {
		u = 1
	}
	return u
}

// Stats snapshots the accounting. Percentiles are computed on the fly
// from the bounded completion window.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Instances: s.n,
		Completed: s.completed,
		Late:      s.late,
		Busy:      s.busy,
		Modeled:   s.modeled,
		Span:      s.Now(),
	}
	waits := s.waits.snapshot()
	lats := s.lats.snapshot()
	s.mu.Unlock()
	st.Wait = metrics.Summarize(waits)
	st.Latency = metrics.Summarize(lats)
	return st
}
