package main

import (
	"bufio"
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// Span names. The engine spans wrap the benchmark's calls into the public
// session API during the traced engine loop; the layer spans wrap its calls
// into each layer's public functions during the replay.
const (
	spanRead      = "read"            // one read through the engine (root)
	spanOpen      = "engine.open"     // NewSession
	spanFeed      = "engine.feed"     // Session.Feed of one chunk
	spanFinalize  = "engine.finalize" // Session.Finalize
	spanReplay    = "replay"          // one read through the layers (root)
	spanNormalize = "normalize"       // normalize.ApplyInt8Into
	spanDecimate  = "squiggle.decimate"
	spanCoarse    = "sdtw.coarse" // sdtw.CoarseScorer.ScoreBounded
	spanExact     = "sdtw.exact"  // sdtw.Extend or sdtw.Extend16
)

// span is one timed call. start and end are wall-clock nanoseconds since
// the tracer started; cpu is the calling thread's CPU time inside the
// span, or -1 where the call ran unpinned and the thread's clock means
// nothing. parent is the index of the enclosing span (-1 for a root) and
// read the pool index of the read the call served.
type span struct {
	name       string
	start, end int64
	cpu        int64
	parent     int32
	read       int32
}

// tracer keeps every span of a run in memory; write dumps them when the
// run ends. A nil *tracer records nothing, so the untraced loop shares the
// traced loop's code.
type tracer struct {
	base  time.Time
	spans []span
	// threadCPU is set while the caller is locked to its OS thread, so
	// that spans also read the thread's CPU clock.
	threadCPU bool
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int32, read int) int32 {
	if t == nil {
		return -1
	}
	s := span{
		name:   name,
		start:  int64(time.Since(t.base)),
		cpu:    -1,
		parent: parent,
		read:   int32(read),
	}
	if t.threadCPU {
		s.cpu = threadCPUTime()
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	if t.threadCPU {
		s.cpu = threadCPUTime() - s.cpu
	}
	s.end = int64(time.Since(t.base))
}

// selfTime sums, per span name, each span's duration minus the part of it
// that its children cover: a layer's busy time. Spans with a thread CPU
// time count that, the others their wall time.
func (t *tracer) selfTime() map[string]time.Duration {
	dur := func(s span) int64 {
		if s.cpu >= 0 {
			return s.cpu
		}
		return s.end - s.start
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += dur(s)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.name] += time.Duration(dur(s) - child[i])
	}
	return self
}

// threadCPUTime reads the calling OS thread's CPU clock in nanoseconds.
func threadCPUTime() int64 {
	var ts syscall.Timespec
	// CLOCK_THREAD_CPUTIME_ID with a valid pointer cannot fail.
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// write stores the spans as CSV, one per line, after a comment line naming
// the host and workload.
func (t *tracer) write(path, header string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\nname,start_ns,end_ns,cpu_ns,parent,read\n", header)
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", s.name, s.start, s.end, s.cpu, s.parent, s.read)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
