package engine

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"squigglefilter/internal/engine/sched"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/squiggle"
)

// coarseRefFor decimates a normalized int8 reference for cascade tests:
// float mean-pooling of the int8 levels, rounded back to int8. The
// engine-level tests only need coarse references that behave like the
// exact ones at 1/d rate; the public API layer owns the real
// decimate-renormalize-quantize path.
func coarseRefFor(ref []int8, d int) []int8 {
	f := make([]float64, len(ref))
	for i, v := range ref {
		f[i] = float64(v)
	}
	dec := squiggle.Decimate(f, d)
	out := make([]int8, len(dec))
	for i, v := range dec {
		r := int(v + 0.5)
		if v < 0 {
			r = int(v - 0.5)
		}
		if r > 127 {
			r = 127
		} else if r < -127 {
			r = -127
		}
		out[i] = int8(r)
	}
	return out
}

// swCascade builds a cascade over software targets with decimated copies
// of their own references as the coarse tier.
func swCascade(t testing.TB, panel *Panel, refs [][]int8, cfg CascadeConfig) *Cascade {
	t.Helper()
	d := cfg.Decimation
	if d == 0 {
		d = DefaultDecimation
	}
	coarse := make([][]int8, len(refs))
	for i, r := range refs {
		coarse[i] = coarseRefFor(r, d)
	}
	c, err := NewCascade(panel, coarse, sdtw.DefaultIntConfig(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestCascadeSurvivorSelection pins the survivor cut: top-k by cost, ties
// with the k-th kept, margin widening the cut, indices ascending.
func TestCascadeSurvivorSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := sdtw.DefaultIntConfig()
	refs := [][]int8{randomRef(rng, 400), randomRef(rng, 400), randomRef(rng, 400), randomRef(rng, 400)}
	stages := []sdtw.Stage{{PrefixSamples: 400, Threshold: 400 * 3}}
	targets := make([]Target, len(refs))
	for i, r := range refs {
		targets[i] = swTarget(t, "t", r, cfg, 1, stages)
	}
	panel := swPanel(t, targets)

	c := swCascade(t, panel, refs, CascadeConfig{TopK: 2})
	cases := []struct {
		costs  []int32
		margin int64
		qlen   int
		want   []int
	}{
		// Distinct costs: plain top-2, ascending panel order.
		{[]int32{40, 10, 30, 20}, 0, 100, []int{1, 3}},
		// Exact tie with the k-th: all tied targets survive.
		{[]int32{20, 10, 20, 20}, 0, 100, []int{0, 1, 2, 3}},
		// Margin per decimated sample widens the cut: 20 + 1*10 = 30.
		{[]int32{40, 10, 30, 20}, 1, 10, []int{1, 2, 3}},
	}
	for _, tc := range cases {
		c.cfg.Margin = tc.margin
		got := c.survivors(tc.costs, tc.qlen)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("survivors(%v, margin=%d, qlen=%d) = %v, want %v",
				tc.costs, tc.margin, tc.qlen, got, tc.want)
		}
	}
}

// TestCascadeTopKCoversPanel: with TopK >= len(targets) the coarse tier is
// skipped (zero coarse DP) and the streamed cascade verdict is
// bit-identical to one-shot Panel.Classify.
func TestCascadeTopKCoversPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cfg := sdtw.DefaultIntConfig()
	refs := [][]int8{randomRef(rng, 1000), randomRef(rng, 1000), randomRef(rng, 1000)}
	stages := []sdtw.Stage{{PrefixSamples: 600, Threshold: 600 * 4}}
	targets := make([]Target, len(refs))
	for i, r := range refs {
		targets[i] = swTarget(t, "t", r, cfg, 1, stages)
	}
	panel := swPanel(t, targets)
	c := swCascade(t, panel, refs, CascadeConfig{TopK: len(refs), CoarsePrefix: 300})

	for trial := 0; trial < 20; trial++ {
		read := randomRead(rng, 200+rng.Intn(900))
		want := panel.Classify(read)
		cs, err := c.NewSession(PrunePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := cs.Stream(read, 150)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: cascade %+v != panel %+v", trial, got, want)
		}
		if cs.CoarseDPSamples() != 0 || cs.CoarseCosts() != nil {
			t.Fatalf("trial %d: coarse tier ran despite TopK covering the panel", trial)
		}
		if got := cs.Survivors(); len(got) != len(refs) {
			t.Fatalf("trial %d: survivors = %v, want all %d targets", trial, got, len(refs))
		}
	}
}

// TestCascadeSurvivorResultsMatchPanel: survivors' per-target results are
// bit-identical to the plain panel's, non-survivors report Reject, and
// the DP accounting reflects both tiers.
func TestCascadeSurvivorResultsMatchPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cfg := sdtw.DefaultIntConfig()
	const n = 8
	refs := make([][]int8, n)
	targets := make([]Target, n)
	stages := []sdtw.Stage{{PrefixSamples: 800, Threshold: 800 * 4}}
	for i := range refs {
		refs[i] = randomRef(rng, 1200)
		targets[i] = swTarget(t, "t", refs[i], cfg, 1, stages)
	}
	panel := swPanel(t, targets)
	c := swCascade(t, panel, refs, CascadeConfig{TopK: 3, Decimation: 4, CoarsePrefix: 400})

	for trial := 0; trial < 10; trial++ {
		read := randomRead(rng, 1000)
		want := panel.Classify(read)
		cs, err := c.NewSession(PrunePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := cs.Stream(read, 128)
		surv := cs.Survivors()
		if len(surv) < 3 {
			t.Fatalf("trial %d: %d survivors, want >= TopK", trial, len(surv))
		}
		isSurv := make(map[int]bool, len(surv))
		for _, i := range surv {
			isSurv[i] = true
		}
		for i := range got.PerTarget {
			if isSurv[i] {
				if !reflect.DeepEqual(got.PerTarget[i], want.PerTarget[i]) {
					t.Errorf("trial %d target %d: survivor result %+v != panel %+v",
						trial, i, got.PerTarget[i], want.PerTarget[i])
				}
			} else if got.PerTarget[i].Decision != sdtw.Reject || got.PerTarget[i].SamplesUsed != 0 {
				t.Errorf("trial %d target %d: non-survivor result %+v, want bare Reject",
					trial, i, got.PerTarget[i])
			}
		}
		if cs.CoarseDPSamples() == 0 || cs.DPCells() <= cs.CoarseDPSamples() {
			t.Errorf("trial %d: implausible DP accounting: coarse %d samples, %d cells",
				trial, cs.CoarseDPSamples(), cs.DPCells())
		}
		if exact := cs.DPSamples(); exact != int64(len(surv))*800 {
			t.Errorf("trial %d: exact-tier DP = %d samples, want %d survivors x 800",
				trial, exact, len(surv))
		}
	}
}

// TestCascadeEmptyAndShortReads: a read finalized before any signal keeps
// every target (all Continue, matching the plain panel on nil input), and
// a read shorter than the coarse prefix still promotes and scores on
// Finalize.
func TestCascadeEmptyAndShortReads(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cfg := sdtw.DefaultIntConfig()
	refs := [][]int8{randomRef(rng, 800), randomRef(rng, 800), randomRef(rng, 800)}
	stages := []sdtw.Stage{{PrefixSamples: 500, Threshold: 500 * 4}}
	targets := make([]Target, len(refs))
	for i := range refs {
		targets[i] = swTarget(t, "t", refs[i], cfg, 1, stages)
	}
	panel := swPanel(t, targets)
	c := swCascade(t, panel, refs, CascadeConfig{TopK: 1, Decimation: 4, CoarsePrefix: 600, RecordCoarseCosts: true})

	cs, err := c.NewSession(PrunePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	empty := cs.Finalize()
	if want := panel.Classify(nil); !reflect.DeepEqual(empty, want) {
		t.Errorf("empty read: cascade %+v != panel %+v", empty, want)
	}
	if len(cs.Survivors()) != len(refs) {
		t.Errorf("empty read pruned targets with no evidence: survivors %v", cs.Survivors())
	}

	short, err := c.NewSession(PrunePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	read := randomRead(rng, 300) // < CoarsePrefix
	short.Feed(read)
	if short.Promoted() {
		t.Fatal("promoted before the coarse prefix filled or the read ended")
	}
	short.Finalize()
	if !short.Promoted() || short.CoarseCosts() == nil {
		t.Fatal("short read did not score the coarse tier on Finalize")
	}
	if got := len(short.Survivors()); got < 1 {
		t.Fatalf("short read kept %d survivors", got)
	}
}

// TestCascadeConfigValidation pins constructor validation.
func TestCascadeConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 400)
	stages := []sdtw.Stage{{PrefixSamples: 400, Threshold: 400 * 3}}
	panel := swPanel(t, []Target{swTarget(t, "t", ref, cfg, 1, stages)})
	coarse := [][]int8{coarseRefFor(ref, 8)}

	for _, bad := range []CascadeConfig{
		{Decimation: -1},
		{TopK: -2},
		{Margin: -1},
		{CoarsePrefix: -5},
	} {
		if _, err := NewCascade(panel, coarse, cfg, bad); err == nil {
			t.Errorf("no error for config %+v", bad)
		}
	}
	if _, err := NewCascade(panel, nil, cfg, CascadeConfig{}); err == nil {
		t.Error("no error for missing coarse references")
	}
	if _, err := NewCascade(nil, coarse, cfg, CascadeConfig{}); err == nil {
		t.Error("no error for nil panel")
	}
	c, err := NewCascade(panel, coarse, cfg, CascadeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	got := c.Config()
	want := CascadeConfig{Decimation: DefaultDecimation, TopK: DefaultTopK, CoarsePrefix: DefaultCoarsePrefix, QueryDwell: DefaultQueryDwell}
	if got != want {
		t.Errorf("resolved config %+v, want %+v", got, want)
	}
}

// TestCascadeCloseConcurrent: Close is safe concurrent with in-flight
// passes and with itself — every helper starts with the cascade, so
// Close's Wait never races a helper's start, and a pass that hands off
// after Close drains on its caller. Run under -race in CI.
func TestCascadeCloseConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	for trial := 0; trial < 8; trial++ {
		c, _ := buildBoundedCascade(t, rng, 8, 2, 0, 600)
		read := randomRead(rng, 900)
		start := make(chan struct{})
		classified := make(chan struct{})
		go func() {
			<-start
			c.Classify(read) // races the Closes below
			close(classified)
		}()
		var closed [2]chan struct{}
		for i := range closed {
			closed[i] = make(chan struct{})
			go func(ch chan struct{}) {
				<-start
				c.Close() // idempotent and safe concurrent with Classify
				close(ch)
			}(closed[i])
		}
		close(start)
		<-classified
		<-closed[0]
		<-closed[1]
		c.Close() // and once more after everything settled
	}
}

// TestCascadeSessionOneAcquirePerLaneGroup: a session's coarse pass
// borrows one scheduler slot per lane group of 16 references — every reference of the group and every dwell
// hypothesis scored inside it — not one per reference or per
// (reference, hypothesis). The panel spans a full group and a partial
// one. The exact tier schedules on its own panel's pools, so the coarse
// scheduler's completions count exactly the pass. The session's cell
// count stays the real work, padding excluded: each hypothesis's query
// length times the summed reference lengths.
func TestCascadeSessionOneAcquirePerLaneGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	const n = 21
	groups := (n + 15) / 16
	c, _ := buildBoundedCascade(t, rng, n, 3, 0, 1200)
	defer c.Close()
	if h := len(c.cfg.queryFactors()); h < 2 {
		t.Fatalf("%d dwell hypotheses; the test needs several", h)
	}
	var refCells int64
	for _, ref := range c.coarse {
		refCells += int64(len(ref))
	}
	for trial := 0; trial < 3; trial++ {
		before := c.sch.Stats().Completed
		cs, err := c.NewSession(PrunePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		read := randomRead(rng, 1500)
		cs.Stream(read, 400)
		if cs.CoarseScorings() == 0 {
			t.Fatalf("trial %d: the coarse tier never scored", trial)
		}
		if got := c.sch.Stats().Completed - before; got != int64(groups) {
			t.Errorf("trial %d: coarse pass completed %d scheduler tasks over %d references, want %d (one per lane group)",
				trial, got, n, groups)
		}
		var wantCells int64
		for _, qf := range c.cfg.queryFactors() {
			wantCells += int64((c.cfg.CoarsePrefix+qf-1)/qf) * refCells
		}
		if got := cs.CoarseDPCells(); got != wantCells {
			t.Errorf("trial %d: CoarseDPCells = %d, want len(q)·Σ refLen summed over hypotheses = %d", trial, got, wantCells)
		}
	}
}

// TestCascadePassPoolReuseOnCancel pins the pooled-pass error path: a
// pass unwound by cancellation must still return to the pool (the
// defer-based putPass), so a burst of cancelled reads does not allocate
// a fresh pass each time. Allocation-counted, so skipped under race.
func TestCascadePassPoolReuseOnCancel(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on channel and pool operations")
	}
	rng := rand.New(rand.NewSource(179))
	c, _ := buildBoundedCascade(t, rng, 16, 4, 0, 1200)
	defer c.Close()
	read := randomRead(rng, 1200)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // every Acquire under this context fails immediately

	failedPass := func() {
		p := c.getPass(cancelled, read)
		defer c.putPass(p)
		if err := p.run(); err == nil {
			t.Fatal("coarse pass under a cancelled context did not fail")
		}
	}
	for i := 0; i < 5; i++ {
		failedPass() // warm the pool through the failure path itself
	}
	allocs := testing.AllocsPerRun(50, failedPass)
	if allocs > 0.5 {
		t.Errorf("cancelled coarse pass allocates %.2f objects per read, want ~0 (pass not returning to pool?)", allocs)
	}
}

// TestCascadeClassifyContextError: ClassifyContext reports a session that
// stopped without deciding through its error, with the all-Continue
// verdict, instead of panicking. Opening its session cannot fail (the
// zero prune policy always validates), so the test drives the one
// failure a read can meet after that: a context cancelled before the
// coarse pass.
func TestCascadeClassifyContextError(t *testing.T) {
	rng := rand.New(rand.NewSource(199))
	c, _ := buildBoundedCascade(t, rng, 8, 2, 0, 600)
	defer c.Close()
	read := randomRead(rng, 900)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if r, err := c.ClassifyContext(cancelled, read); err == nil || !r.Undecided || r.Best != -1 {
		t.Errorf("cancelled context: err %v, verdict %+v, want the cause and the all-Continue verdict", err, r)
	}
}

// countGoroutines counts the goroutines whose state is state and whose
// stack contains frame.
func countGoroutines(state, frame string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "["+state) && strings.Contains(g, frame) {
			n++
		}
	}
	return n
}

// helperFrame is the stack frame of a helper parked or working in a
// cascade's helper set.
const helperFrame = "(*helperSet).serve("

// waitGoroutines polls until countGoroutines(state, frame) reaches want
// or five seconds pass, and returns the last count.
func waitGoroutines(state, frame string, want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := countGoroutines(state, frame)
	for n < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = countGoroutines(state, frame)
	}
	return n
}

// TestCascadeExactTierFanOutUnwinds: a promotion's survivors are shared
// between the caller and the helper set, and a read given up while they
// are mid-stage unwinds every participant. Every target pipeline's only
// instance is held, so the survivors' first stage queues in Acquire on
// several goroutines at once — the caller and at least one helper, the
// proof the exact tier fanned out. Then either the session context is
// cancelled, or the cascade is closed and the context cancelled after.
// Either way the session reports the cause through Err with the
// all-Continue verdict, feeding it again does not revive it, no goroutine
// is left beyond the helper set, and Close releases that.
func TestCascadeExactTierFanOutUnwinds(t *testing.T) {
	for _, closeFirst := range []bool{false, true} {
		rng := rand.New(rand.NewSource(211))
		c, _ := buildBoundedCascade(t, rng, 12, 3, 0, 600)
		// The read crosses the prefix and the 500-sample stage; one
		// classification settles the pools.
		read := randomRead(rng, 1200)
		c.Classify(read)
		// Helpers join only from their parking spot, so wait until every
		// one has reached it. Every other cascade is closed by now, so
		// these are the only helpers.
		if n := waitGoroutines("select", helperFrame, c.workers-1); n != c.workers-1 {
			t.Fatalf("closeFirst=%v: %d helpers parked, want %d", closeFirst, n, c.workers-1)
		}
		base := runtime.NumGoroutine()

		type slot struct {
			p   *Pipeline
			idx int
		}
		var held []slot
		for _, tg := range c.panel.targets {
			idx, err := tg.Pipeline.sch.Acquire(context.Background(), sched.Task{})
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, slot{tg.Pipeline, idx})
		}
		ctx, cancel := context.WithCancel(context.Background())
		cs, err := c.NewSessionContext(ctx, PrunePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		const acquireFrame = "sched.(*Scheduler).Acquire("
		waiting := countGoroutines("", acquireFrame)
		fed := make(chan PanelResult, 1)
		go func() {
			r, _ := cs.Feed(read)
			fed <- r
		}()
		if n := waitGoroutines("", acquireFrame, waiting+2) - waiting; n < 2 {
			t.Fatalf("closeFirst=%v: %d survivor stages waiting, want the caller and a helper", closeFirst, n)
		}

		closed := make(chan struct{})
		if closeFirst {
			go func() {
				c.Close()
				close(closed)
			}()
			select {
			case <-closed:
				t.Fatal("Close returned while a helper was still inside a survivor's stage")
			case <-time.After(20 * time.Millisecond):
			}
		}
		cancel()
		got := <-fed
		if closeFirst {
			<-closed
		}

		if cs.Err() == nil || !cs.Promoted() || !cs.Decided() {
			t.Errorf("closeFirst=%v: Err %v, promoted %v, decided %v; want a promoted session aborted with the cause",
				closeFirst, cs.Err(), cs.Promoted(), cs.Decided())
		}
		if !got.Undecided || got.Best != -1 {
			t.Errorf("closeFirst=%v: verdict %+v, want undecided", closeFirst, got)
		}
		for i, r := range got.PerTarget {
			if r.Decision != sdtw.Continue {
				t.Errorf("closeFirst=%v: target %d decided %v on a cancelled read", closeFirst, i, r.Decision)
			}
		}
		if r, done := cs.Feed(read); !done || !reflect.DeepEqual(r, got) {
			t.Errorf("closeFirst=%v: feeding after the abort changed the session: done=%v %+v", closeFirst, done, r)
		}
		for _, s := range held {
			s.p.sch.Release(s.idx)
		}

		settle := func(limit int) int {
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > limit && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			return runtime.NumGoroutine()
		}
		if !closeFirst {
			if n := settle(base); n > base {
				t.Errorf("cancelled exact tier left %d goroutines, baseline %d with the helpers", n, base)
			}
			c.Close()
		}
		if n := settle(base - (c.workers - 1)); n > base-(c.workers-1) {
			t.Errorf("closeFirst=%v: %d goroutines after Close, want at most %d (baseline less the helpers)",
				closeFirst, n, base-(c.workers-1))
		}
	}
}

// TestCascadeHelpersParkedBeforeFirstRead: NewCascade starts the helper
// set, so its workers-1 helpers are parked before the first read is fed
// and that read's promotion can hand its coarse pass and exact tier to
// them. The handoff is non-blocking, so a helper that is not parked yet
// when a promotion looks for it leaves the work on the caller.
func TestCascadeHelpersParkedBeforeFirstRead(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("a one-CPU host sizes the helper set to no helpers")
	}
	rng := rand.New(rand.NewSource(223))
	cfg := sdtw.DefaultIntConfig()
	stages := []sdtw.Stage{{PrefixSamples: 500, Threshold: 500 * 4}}
	refs := make([][]int8, 8)
	targets := make([]Target, len(refs))
	for i := range refs {
		refs[i] = randomRef(rng, 800)
		targets[i] = swTarget(t, "t", refs[i], cfg, 1, stages)
	}
	before := countGoroutines("select", helperFrame)
	c := swCascade(t, swPanel(t, targets), refs, CascadeConfig{TopK: 2, CoarsePrefix: 600})
	if c.workers < 2 {
		t.Fatalf("helper set sized to %d workers on %d CPUs", c.workers, runtime.NumCPU())
	}
	if n := waitGoroutines("select", helperFrame, before+c.workers-1) - before; n != c.workers-1 {
		t.Fatalf("%d helpers parked before the first read, want %d", n, c.workers-1)
	}
	c.Close()
	if n := countGoroutines("", helperFrame) - before; n != 0 {
		t.Errorf("%d helpers left after Close", n)
	}
}
