package sched

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestVirtualEDFOrder: on one server, tasks released together run in
// deadline order regardless of submission order, and best-effort
// (deadline 0) tasks run after every deadlined task.
func TestVirtualEDFOrder(t *testing.T) {
	v := NewVirtual(1)
	v.Submit(VTask{Release: 0, Deadline: 0, Cost: time.Second, Tag: "besteffort"})
	v.Submit(VTask{Release: 0, Deadline: 30 * time.Second, Cost: time.Second, Tag: "late"})
	v.Submit(VTask{Release: 0, Deadline: 10 * time.Second, Cost: time.Second, Tag: "urgent"})
	comps := v.Drain()
	var got []string
	for _, c := range comps {
		got = append(got, c.Tag.(string))
	}
	want := []string{"urgent", "late", "besteffort"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EDF order %v, want %v", got, want)
	}
	// Back-to-back on one server: finishes at 1s, 2s, 3s.
	for i, c := range comps {
		if want := time.Duration(i+1) * time.Second; c.Finish != want {
			t.Errorf("task %d finish %v, want %v", i, c.Finish, want)
		}
	}
}

// TestVirtualNonPreemptive: a running task is never preempted — an
// urgent task released mid-service waits for the server.
func TestVirtualNonPreemptive(t *testing.T) {
	v := NewVirtual(1)
	v.Submit(VTask{Release: 0, Deadline: time.Minute, Cost: 10 * time.Second, Tag: "long"})
	if comps := v.AdvanceTo(5 * time.Second); len(comps) != 0 {
		t.Fatalf("long task finished early: %v", comps)
	}
	v.Submit(VTask{Release: 5 * time.Second, Deadline: 6 * time.Second, Cost: time.Second, Tag: "urgent"})
	comps := v.Drain()
	if comps[0].Tag != "long" || comps[1].Tag != "urgent" {
		t.Fatalf("preemption happened: %v then %v", comps[0].Tag, comps[1].Tag)
	}
	if comps[1].Start != 10*time.Second {
		t.Errorf("urgent started at %v, want 10s (after the running task)", comps[1].Start)
	}
	if !comps[1].Late() {
		t.Error("urgent task blocked behind a long service must be late")
	}
	if comps[1].Wait() != 5*time.Second {
		t.Errorf("urgent waited %v, want 5s", comps[1].Wait())
	}
}

// TestVirtualIdlesUntilRelease: a free server waits for the next release
// instead of running a future task early.
func TestVirtualIdlesUntilRelease(t *testing.T) {
	v := NewVirtual(2)
	v.Submit(VTask{Release: 3 * time.Second, Cost: time.Second, Tag: "a"})
	comps := v.Drain()
	if comps[0].Start != 3*time.Second || comps[0].Finish != 4*time.Second {
		t.Fatalf("start/finish %v/%v, want 3s/4s", comps[0].Start, comps[0].Finish)
	}
	if comps[0].Wait() != 0 {
		t.Errorf("wait %v, want 0", comps[0].Wait())
	}
}

// TestVirtualEDFSelectsAmongArrived: EDF may only choose among tasks
// released by the server-free instant — a later-released task with an
// earlier deadline must not retroactively win a start that happened
// before it arrived.
func TestVirtualEDFSelectsAmongArrived(t *testing.T) {
	v := NewVirtual(1)
	v.Submit(VTask{Release: 0, Deadline: time.Hour, Cost: 2 * time.Second, Tag: "first"})
	// Released at 1s — while "first" is already running.
	v.Submit(VTask{Release: time.Second, Deadline: time.Minute, Cost: time.Second, Tag: "second"})
	comps := v.Drain()
	if comps[0].Tag != "first" {
		t.Fatalf("ran %v first, want the task that had arrived", comps[0].Tag)
	}
}

// TestVirtualDeterminism: identical random submission sequences produce
// identical schedules, completion for completion.
func TestVirtualDeterminism(t *testing.T) {
	run := func() []Completion {
		rng := rand.New(rand.NewSource(99))
		v := NewVirtual(3)
		var out []Completion
		now := time.Duration(0)
		for i := 0; i < 500; i++ {
			now += time.Duration(rng.Intn(1000)) * time.Millisecond
			v.Submit(VTask{
				Release:  now,
				Deadline: now + time.Duration(rng.Intn(5000))*time.Millisecond,
				Cost:     time.Duration(rng.Intn(2000)) * time.Millisecond,
				Tag:      i,
			})
			out = append(out, v.AdvanceTo(now)...)
		}
		return append(out, v.Drain()...)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical virtual runs diverged")
	}
	if len(a) != 500 {
		t.Fatalf("completed %d of 500 tasks", len(a))
	}
}

// TestVirtualMultiServerConservation: no server runs two tasks at once
// and the pool is work-conserving (total busy equals the sum of costs).
func TestVirtualMultiServerConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := NewVirtual(4)
	var total time.Duration
	for i := 0; i < 200; i++ {
		c := time.Duration(1+rng.Intn(100)) * time.Millisecond
		total += c
		v.Submit(VTask{Release: time.Duration(i) * 10 * time.Millisecond, Cost: c, Tag: i})
	}
	comps := v.Drain()
	if len(comps) != 200 {
		t.Fatalf("completed %d of 200", len(comps))
	}
	if v.Busy() != total {
		t.Errorf("busy %v != submitted cost %v", v.Busy(), total)
	}
	for i := 1; i < len(comps); i++ {
		if comps[i].Finish < comps[i-1].Finish {
			t.Fatal("completions not in finish order")
		}
	}
}

// TestSchedulerAcquireRelease: the concurrent scheduler grants every
// waiter exactly one instance index and never two waiters the same index
// at once.
func TestSchedulerAcquireRelease(t *testing.T) {
	s := New(3)
	var mu sync.Mutex
	held := make(map[int]bool)
	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				idx, err := s.Acquire(context.Background(), Task{Cost: time.Microsecond})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if held[idx] {
					t.Errorf("instance %d granted twice", idx)
				}
				held[idx] = true
				mu.Unlock()
				mu.Lock()
				held[idx] = false
				mu.Unlock()
				s.Release(idx)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Completed != 24*50 {
		t.Errorf("completed %d, want %d", st.Completed, 24*50)
	}
	if st.Late != 0 {
		t.Errorf("late %d without deadlines", st.Late)
	}
	if st.Modeled != 24*50*time.Microsecond {
		t.Errorf("modeled busy %v, want %v", st.Modeled, 24*50*time.Microsecond)
	}
}

// TestSchedulerCancelledWaiter: a waiter queued behind a held instance
// leaves the queue on context cancellation, and the queue keeps serving
// others afterwards.
func TestSchedulerCancelledWaiter(t *testing.T) {
	s := New(1)
	idx, err := s.Acquire(context.Background(), Task{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx, Task{})
		errc <- err
	}()
	// Give the waiter time to enqueue, then cancel it while the instance
	// is still held.
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled Acquire returned %v, want context.Canceled", err)
	}
	s.Release(idx)
	// The pool must still serve new waiters (the cancelled one must not
	// have absorbed the instance).
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	idx2, err := s.Acquire(ctx2, Task{})
	if err != nil {
		t.Fatalf("pool dead after cancellation: %v", err)
	}
	s.Release(idx2)
}

// TestSchedulerAcquireCancelledContext: a context already done when
// Acquire is called never gets an instance, even on an idle scheduler
// where a free grant is ready at once.
func TestSchedulerAcquireCancelledContext(t *testing.T) {
	s := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		if idx, err := s.Acquire(ctx, Task{}); err == nil {
			s.Release(idx)
			t.Fatalf("Acquire %d with a cancelled context was granted instance %d", i, idx)
		}
	}
	if st := s.Stats(); st.Completed != 0 {
		t.Fatalf("completed %d tasks, want 0", st.Completed)
	}
}

// TestSchedulerEDFGrantOrder: with one instance held and several waiters
// queued, the release grants the earliest deadline first.
func TestSchedulerEDFGrantOrder(t *testing.T) {
	s := New(1)
	idx, err := s.Acquire(context.Background(), Task{})
	if err != nil {
		t.Fatal(err)
	}
	now := s.Now()
	order := make(chan string, 3)
	var wg sync.WaitGroup
	enqueue := func(name string, deadline time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i, err := s.Acquire(context.Background(), Task{Deadline: deadline})
			if err != nil {
				t.Error(err)
				return
			}
			order <- name
			s.Release(i)
		}()
	}
	enqueue("besteffort", 0)
	time.Sleep(5 * time.Millisecond)
	enqueue("late", now+time.Hour)
	time.Sleep(5 * time.Millisecond)
	enqueue("urgent", now+time.Minute)
	time.Sleep(5 * time.Millisecond) // let all three enqueue
	s.Release(idx)
	wg.Wait()
	close(order)
	var got []string
	for n := range order {
		got = append(got, n)
	}
	want := []string{"urgent", "late", "besteffort"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grant order %v, want %v", got, want)
	}
}

// TestSchedulerAcquireReleaseAllocFree pins the waiter pooling: an
// uncontended Acquire/Release round trip allocates nothing steady-state
// (the stat reservoirs stop growing at their cap; amortized slice growth
// before that is the fractional slack). The cascade's coarse tier issues
// one such round trip per target per read, so a fresh waiter per call
// would put thousands of allocations back on the per-read hot path.
func TestSchedulerAcquireReleaseAllocFree(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ { // warm the pool and the running map
		idx, err := s.Acquire(context.Background(), Task{Cost: time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		s.Release(idx)
	}
	allocs := testing.AllocsPerRun(200, func() {
		idx, err := s.Acquire(context.Background(), Task{Cost: time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		s.Release(idx)
	})
	if allocs > 0.5 {
		t.Fatalf("Acquire/Release allocates %.2f/op, want ~0 (pooled waiters)", allocs)
	}
}

// TestSchedulerCancelRecyclesWaiter: cancellation paths return waiters
// to the pool without corrupting the queue — after a burst of Acquires
// cancelled while queued the scheduler still grants and accounts
// normally.
func TestSchedulerCancelRecyclesWaiter(t *testing.T) {
	s := New(1)
	idx, err := s.Acquire(context.Background(), Task{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			if _, err := s.Acquire(ctx, Task{}); err == nil {
				t.Error("cancelled Acquire returned no error")
			}
		}()
	}
	// Cancel only once every waiter is queued: a context already done
	// never queues, so it would not exercise the recycling path.
	for queued := 0; queued < 8; {
		s.mu.Lock()
		queued = len(s.queue)
		s.mu.Unlock()
		runtime.Gosched()
	}
	cancel()
	for g := 0; g < 8; g++ {
		<-done
	}
	s.Release(idx)
	for i := 0; i < 20; i++ {
		idx, err := s.Acquire(context.Background(), Task{})
		if err != nil {
			t.Fatal(err)
		}
		s.Release(idx)
	}
	if st := s.Stats(); st.Completed != 21 {
		t.Fatalf("completed %d, want 21 (cancelled waiters must not count)", st.Completed)
	}
}
