package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// chunkSamples is the live delivery granularity: ~0.1 s of signal at the
// MinION's ~4 kHz channel clock.
const chunkSamples = 400

// outcome is one read's result from the engine loop.
type outcome struct {
	read   int // pool index
	source int // ground truth: target index, or -1 for host
	// latency is the wall time of the call that returned the verdict;
	// wall and cpu are the read's service time, from opening its session
	// to collecting its verdict, and the whole process's CPU time over it,
	// coarse-tier helpers and GC included.
	latency, wall, cpu time.Duration
	err                error
	// undecided: the read ended with no verdict.
	undecided bool
	// positive: some target accepted the read; attributed: the accepting
	// target is the read's source.
	positive, attributed bool
	// mismatch: the verdict differs from the reference path's.
	mismatch bool
	// survivors lists the targets the exact tier ran, with their exact
	// costs and stage windows.
	survivors      []int
	costs          []int32
	used           []int
	exactCells     int64
	coarseCells    int64
	coarsePruned   int64
	coarseScorings int64
}

func (o *outcome) failed() bool { return o.err != nil || o.undecided || o.mismatch }

// loopStats is one closed-loop run.
type loopStats struct {
	outcomes     []outcome
	allocBytes   uint64
	allocObjects uint64
}

// totals sums the reads' service wall time and CPU time.
func (st *loopStats) totals() (wall, cpu time.Duration) {
	for i := range st.outcomes {
		wall += st.outcomes[i].wall
		cpu += st.outcomes[i].cpu
	}
	return wall, cpu
}

func (st *loopStats) failed() int {
	n := 0
	for i := range st.outcomes {
		if st.outcomes[i].failed() {
			n++
		}
	}
	return n
}

// client is the benchmark's single closed-loop client: it feeds the pool's
// reads through the workload's sessions one at a time, each read in
// chunkSamples deliveries with no pacing.
type client struct {
	w    workload
	pool []poolRead
	// refs holds the reference path's verdicts for the leading pool reads.
	refs []string
}

// loop serves reads until dur has passed, always finishing the read in
// flight. after, when not nil, runs once per read outside the read's
// timing but inside dur.
func (d *client) loop(dur time.Duration, tr *tracer, after func(*outcome)) (loopStats, error) {
	var st loopStats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for next := 0; time.Since(start) < dur; next++ {
		o, err := d.serve(next%len(d.pool), tr)
		if err != nil {
			return st, err
		}
		st.outcomes = append(st.outcomes, o)
		if after != nil {
			after(&o)
		}
	}
	runtime.ReadMemStats(&m1)
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.allocObjects = m1.Mallocs - m0.Mallocs
	return st, nil
}

// serve classifies one read, delivering its signal chunk by chunk until
// the session decides, then finalizing it. A read whose signal runs out
// undecided is decided by Finalize.
func (d *client) serve(read int, tr *tracer) (outcome, error) {
	o := outcome{read: read, source: d.pool[read].source}
	t0, c0 := time.Now(), cpuTime()
	root := tr.begin(spanRead, -1, read)
	sp := tr.begin(spanOpen, root, read)
	s, err := d.w.open()
	tr.end(sp)
	if err != nil {
		return o, err
	}
	samples := d.pool[read].samples
	for off := 0; ; {
		call := time.Now()
		if off >= len(samples) {
			sp := tr.begin(spanFinalize, root, read)
			s.finalize()
			tr.end(sp)
			o.latency = time.Since(call)
			break
		}
		end := min(off+chunkSamples, len(samples))
		sp := tr.begin(spanFeed, root, read)
		s.feed(samples[off:end])
		tr.end(sp)
		off = end
		if s.decided() {
			o.latency = time.Since(call)
			// Closing a decided session collects its verdict.
			sp := tr.begin(spanFinalize, root, read)
			s.finalize()
			tr.end(sp)
			break
		}
	}
	tr.end(root)
	o.wall, o.cpu = time.Since(t0), cpuTime()-c0
	s.report(&o)
	if read < len(d.refs) && s.verdict() != d.refs[read] {
		o.mismatch = true
	}
	return o, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + time.Duration((pos-float64(i))*float64(s[i+1]-s[i]))
}
