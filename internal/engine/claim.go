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

// claimJob is the engine's one work-sharing loop: n independent items,
// claimed one at a time off a shared atomic cursor by every participant —
// the goroutine that runs the job plus whichever helpers join it. Claims
// are dynamic, so a participant that draws a long item simply claims
// fewer; bodies write per-item slots, so the outcome never depends on who
// claimed what. The coarse pass's lane groups, the exact tier's survivors,
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
// of up to workers participants. Handoff is non-blocking: a helper set
// busy with other jobs — or already released by close — simply does not
// join, and the caller drains the difference itself.
type helperSet struct {
	workers   int
	work      chan *claimJob
	quit      chan struct{}
	closeOnce sync.Once
	helpers   sync.WaitGroup
}

// init starts the workers-1 helpers, parked until a job arrives; they
// live until close. Starting them here, not on first use, is what lets
// the first job find them parked.
func (h *helperSet) init(workers int) {
	h.workers = workers
	h.work = make(chan *claimJob)
	h.quit = make(chan struct{})
	for i := 0; i < workers-1; i++ {
		h.helpers.Add(1)
		go h.serve()
	}
}

// serve is one helper: park, join a handed-over job, drain it, park again.
func (h *helperSet) serve() {
	defer h.helpers.Done()
	for {
		select {
		case <-h.quit:
			return
		case j := <-h.work:
			j.drain()
			j.joined.Done()
		}
	}
}

// close releases the helpers and returns once every one has exited. A
// job in flight still completes — its caller always drains — so close
// waits for the helpers inside it. Idempotent and safe concurrently with
// running jobs: after close, handoffs find no helper and the caller
// drains alone.
func (h *helperSet) close() {
	h.closeOnce.Do(func() { close(h.quit) })
	h.helpers.Wait()
}

// run drains j on the caller and on up to workers-1 idle helpers, never
// more participants than items, and returns once every participant is
// done. A nil helper set runs the job on the caller alone.
func (h *helperSet) run(j *claimJob) {
	if h != nil && h.workers > 1 && j.n > 1 {
		extra := min(int64(h.workers-1), j.n-1)
		for ; extra > 0; extra-- {
			j.joined.Add(1)
			select {
			case h.work <- j:
			default:
				j.joined.Add(-1)
			}
		}
	}
	j.drain()
	j.joined.Wait()
}
