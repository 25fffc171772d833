package engine

import (
	"sync"
	"sync/atomic"
)

// claimer is the per-item body of a claimJob: it runs item i. Distinct
// items may run concurrently on different participants, so a body writes
// only item i's own slots.
type claimer interface{ claim(i int) }

// claimFunc adapts a plain function to claimer.
type claimFunc func(i int)

func (f claimFunc) claim(i int) { f(i) }

// claimJob is the engine's one work-sharing loop: n items, claimed one
// at a time in ascending order off a shared atomic cursor by every
// participant — the goroutine that runs the job plus whichever helpers
// join it. Claims are dynamic, so a participant that draws a long item
// simply claims fewer; bodies write per-item slots, so the outcome never
// depends on who claimed what. An item may wait on a lower one, which is
// always claimed by a running participant already: a sharded chunk's
// shards (wavefront.go) wait on their left neighbours' halos. The coarse
// pass's lane groups, the exact tier's survivors, the wavefront,
// Panel.runTargets and Pipeline.fanOut all run through it.
type claimJob struct {
	body claimer
	n    int64
	next atomic.Int64
	// joined counts the helpers that took the job and have not finished
	// draining it.
	joined sync.WaitGroup
}

// reset arms the job for n items. The job must not be running.
func (j *claimJob) reset(n int) {
	j.n = int64(n)
	j.next.Store(0)
}

// drain claims and runs items until none remain: the loop every
// participant runs.
func (j *claimJob) drain() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.body.claim(int(i))
	}
}

// stop parks the cursor past the end, so every participant drains out
// after its current item.
func (j *claimJob) stop() { j.next.Store(j.n) }

// runSpawned runs the job on the caller plus workers-1 goroutines started
// for this call alone and joined before it returns — the fan-out for
// callers that own no persistent helper set.
func (j *claimJob) runSpawned(workers int) {
	for w := 1; w < workers; w++ {
		j.joined.Add(1)
		go func() {
			defer j.joined.Done()
			j.drain()
		}()
	}
	j.drain()
	j.joined.Wait()
}

// helperSet is a persistent set of goroutines that park between jobs and
// join whichever claimJob is handed to them, so a job spawns nothing. The
// job's caller is always one participant, so workers-1 helpers serve jobs
// of up to workers participants. Handoff is non-blocking: a job takes
// only the helpers that are idle, and the caller drains the difference
// itself. A helper counts as idle again before it signals that it left a
// job, so the job's caller — whose next job may follow at once, as a
// session's next stage chunk does — always finds it.
type helperSet struct {
	workers int
	// work holds handed-over jobs, one slot per helper, so a handoff to
	// an idle helper never blocks, even one not yet back at its receive.
	work chan *claimJob
	quit chan struct{}
	// mu guards idle and closed, and orders every handoff before close.
	mu      sync.Mutex
	idle    int
	closed  bool
	helpers sync.WaitGroup
}

// arm sizes the set for workers-1 helpers, every one idle; the caller
// starts them.
func (h *helperSet) arm(workers int) {
	h.workers = workers
	h.idle = max(workers-1, 0)
	h.work = make(chan *claimJob, h.idle)
	h.quit = make(chan struct{})
}

// init starts the workers-1 helpers of a closable set (a cascade's),
// parked until a job arrives; they live until close.
func (h *helperSet) init(workers int) {
	h.arm(workers)
	for i := 0; i < workers-1; i++ {
		h.helpers.Add(1)
		go h.serve()
	}
}

// serve is one helper of a closable set (a cascade's): it works jobs
// until close.
func (h *helperSet) serve() {
	defer h.helpers.Done()
	h.loop()
}

// serveShards is one helper of the process-wide shard set, which is
// never closed.
func (h *helperSet) serveShards() { h.loop() }

// loop is a helper's life: park, join a handed-over job, drain it, park
// again, until the set is closed. Jobs handed over before close still
// find a helper: each one takes what is left in work on its way out.
func (h *helperSet) loop() {
	for {
		select {
		case <-h.quit:
			for {
				select {
				case j := <-h.work:
					h.join(j)
				default:
					return
				}
			}
		case j := <-h.work:
			h.join(j)
		}
	}
}

// join drains j, then counts the helper idle before it signals the job.
func (h *helperSet) join(j *claimJob) {
	j.drain()
	h.mu.Lock()
	h.idle++
	h.mu.Unlock()
	j.joined.Done()
}

// close releases the helpers and returns once every one has exited. A
// job in flight still completes — its caller always drains — so close
// waits for the helpers inside it. Idempotent and safe concurrently with
// running jobs: after close, handoffs find no helper and the caller
// drains alone.
func (h *helperSet) close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		close(h.quit)
	}
	h.mu.Unlock()
	h.helpers.Wait()
}

// run drains j on the caller and on up to workers-1 idle helpers, never
// more participants than items, and returns once every participant is
// done. A nil helper set runs the job on the caller alone.
func (h *helperSet) run(j *claimJob) {
	if h != nil && j.n > 1 {
		h.mu.Lock()
		if !h.closed {
			extra := min(h.idle, int(j.n-1))
			h.idle -= extra
			j.joined.Add(extra)
			for ; extra > 0; extra-- {
				h.work <- j
			}
		}
		h.mu.Unlock()
	}
	j.drain()
	j.joined.Wait()
}
