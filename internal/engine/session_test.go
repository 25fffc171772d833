package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"squigglefilter/internal/gpu"
	"squigglefilter/internal/sdtw"
)

// feedRandomChunks drives a session with the read split at random
// boundaries: chunk sizes are drawn from [1, maxChunk], so the schedule's
// stage boundaries are crossed mid-chunk, exactly on a chunk edge, and by
// chunks spanning several stages at once.
func feedRandomChunks(rng *rand.Rand, s *Session, read []int16, maxChunk int) Result {
	for off := 0; off < len(read); {
		n := 1 + rng.Intn(maxChunk)
		if off+n > len(read) {
			n = len(read) - off
		}
		if res, done := s.Feed(read[off : off+n]); done {
			return res
		}
		off += n
	}
	return s.Finalize()
}

// randomStages builds a 1-3 stage schedule whose boundaries may fall
// inside, exactly at, or beyond the read length.
func randomStages(rng *rand.Rand) []sdtw.Stage {
	n := 1 + rng.Intn(3)
	stages := make([]sdtw.Stage, n)
	prefix := 0
	for i := range stages {
		prefix += 200 + rng.Intn(900)
		stages[i] = sdtw.Stage{PrefixSamples: prefix, Threshold: int32(rng.Intn(prefix * 6))}
	}
	return stages
}

// TestSessionChunkingInvariance is the acceptance property: for random
// reads, random stage schedules, and random chunk boundaries (including
// 1-sample chunks), Session-driven classification is bit-identical to
// one-shot Classify — decisions, costs, end positions, per-stage records,
// and performance stats — on all three back-ends.
func TestSessionChunkingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 2500)
	backends := testBackends(t, ref, cfg)

	for trial := 0; trial < 25; trial++ {
		stages := randomStages(rng)
		// Read lengths around the schedule: shorter than the first stage,
		// exactly on a boundary, and past the last stage all occur.
		readLen := 1 + rng.Intn(3400)
		if rng.Intn(4) == 0 {
			readLen = stages[rng.Intn(len(stages))].PrefixSamples // exact boundary
		}
		read := randomRead(rng, readLen)
		maxChunk := 1
		if rng.Intn(3) > 0 {
			maxChunk = 1 + rng.Intn(900)
		}
		for name, b := range backends {
			want := b.Classify(read, stages)
			sess, err := b.NewSession(stages)
			if err != nil {
				t.Fatal(err)
			}
			got := feedRandomChunks(rng, sess, read, maxChunk)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s session (maxChunk %d, read %d, stages %+v) diverged:\ngot  %+v\nwant %+v",
					trial, name, maxChunk, readLen, stages, got, want)
			}
		}
	}
}

// TestSessionEarlyDecision checks the streaming contract: a rejecting
// read is decided by the Feed call that crosses the deciding stage
// boundary, before the rest of the signal arrives.
func TestSessionEarlyDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	ref := randomRef(rng, 1500)
	sw, err := NewSoftware(ref, sdtw.DefaultIntConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Impossible threshold: every read rejects at the first stage.
	stages := []sdtw.Stage{{PrefixSamples: 500, Threshold: -1}, {PrefixSamples: 1500, Threshold: 1 << 30}}
	sess, err := sw.NewSession(stages)
	if err != nil {
		t.Fatal(err)
	}
	read := randomRead(rng, 2000)
	if _, done := sess.Feed(read[:499]); done {
		t.Fatal("decided before the stage boundary was reached")
	}
	res, done := sess.Feed(read[499:501])
	if !done || res.Decision != sdtw.Reject {
		t.Fatalf("crossing the boundary should decide Reject, got done=%v %v", done, res.Decision)
	}
	if res.SamplesUsed != 500 {
		t.Errorf("SamplesUsed = %d, want 500", res.SamplesUsed)
	}
	if !sess.Decided() {
		t.Error("Decided() false after decision")
	}
	// Further signal is ignored; the decided result is stable.
	if late, done := sess.Feed(read[501:]); !done || !reflect.DeepEqual(late, res) {
		t.Error("post-decision Feed changed the result")
	}
	if fin := sess.Finalize(); !reflect.DeepEqual(fin, res) {
		t.Error("post-decision Finalize changed the result")
	}
}

// TestShortReadRegression pins the zero-length and
// shorter-than-first-stage behavior on all three back-ends, for both the
// one-shot and session paths:
//
//   - a zero-length read yields the Continue verdict (no signal ever
//     reaches the normalizer — the empty-chunk guard);
//   - a read shorter than the first stage boundary is decided with
//     whatever signal exists, identically across back-ends and paths.
func TestShortReadRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 1200)
	backends := testBackends(t, ref, cfg)
	stages := []sdtw.Stage{{PrefixSamples: 1000, Threshold: 1000 * 3}}

	short := randomRead(rng, 137)
	var wantShort *Result
	for name, b := range backends {
		empty := b.Classify(nil, stages)
		if empty.Decision != sdtw.Continue || empty.EndPos != -1 || empty.SamplesUsed != 0 || len(empty.PerStage) != 0 {
			t.Errorf("%s: zero-length one-shot = %+v, want Continue with no stages", name, empty)
		}
		sess, err := b.NewSession(stages)
		if err != nil {
			t.Fatal(err)
		}
		if res, done := sess.Feed(nil); done || res.Decision != sdtw.Continue {
			t.Errorf("%s: zero-length Feed decided: %+v", name, res)
		}
		if res := sess.Finalize(); !reflect.DeepEqual(res, empty) {
			t.Errorf("%s: zero-length session = %+v, want %+v", name, res, empty)
		}
		if sess.Decided() {
			t.Errorf("%s: zero-length session reports Decided after Finalize", name)
		}

		one := b.Classify(short, stages)
		if one.Decision == sdtw.Continue || one.SamplesUsed != len(short) {
			t.Errorf("%s: short read should be decided on its full %d samples, got %+v", name, len(short), one)
		}
		if wantShort == nil {
			wantShort = &one
		} else if one.Decision != wantShort.Decision || one.Cost != wantShort.Cost || one.EndPos != wantShort.EndPos {
			t.Errorf("%s: short-read verdict diverged across back-ends: %+v vs %+v", name, one, *wantShort)
		}
		sess2, err := b.NewSession(stages)
		if err != nil {
			t.Fatal(err)
		}
		sess2.Feed(short)
		if res := sess2.Finalize(); res.Decision != one.Decision || res.Cost != one.Cost {
			t.Errorf("%s: short-read session %+v != one-shot %+v", name, res, one)
		}
	}
}

// TestSessionExactBoundaryEnd: a read ending exactly on a non-final stage
// boundary is accepted at that stage (the read's end makes the stage
// final), identically between one-shot and a session whose Finalize
// arrives only after the boundary was already evaluated.
func TestSessionExactBoundaryEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	ref := randomRef(rng, 1500)
	sw, err := NewSoftware(ref, sdtw.DefaultIntConfig())
	if err != nil {
		t.Fatal(err)
	}
	stages := []sdtw.Stage{
		{PrefixSamples: 600, Threshold: 1 << 30}, // passes: would Continue mid-read
		{PrefixSamples: 2000, Threshold: 1 << 30},
	}
	read := randomRead(rng, 600)
	want := sw.Classify(read, stages)
	if want.Decision != sdtw.Accept {
		t.Fatalf("one-shot boundary-end decision %v, want Accept", want.Decision)
	}
	sess, err := sw.NewSession(stages)
	if err != nil {
		t.Fatal(err)
	}
	if _, done := sess.Feed(read); done {
		t.Fatal("session decided mid-read despite passing threshold")
	}
	if got := sess.Finalize(); !reflect.DeepEqual(got, want) {
		t.Fatalf("boundary-end session:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestPipelineSessionScheduler multiplexes many concurrent live sessions
// over a 2-instance hardware pipeline — more channels than tiles, each
// session parked between chunk deliveries — and checks every verdict is
// bit-identical to one-shot classification. Run under -race this is the
// session scheduler's concurrency check.
func TestPipelineSessionScheduler(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 1500)
	stages := []sdtw.Stage{
		{PrefixSamples: 400, Threshold: 400 * 4},
		{PrefixSamples: 1100, Threshold: 1100 * 3},
	}
	pipe := newHWPipeline(t, ref, cfg, 2, stages)

	const channels = 12
	reads := make([][]int16, channels)
	want := make([]Result, channels)
	seeds := make([]int64, channels)
	for i := range reads {
		reads[i] = randomRead(rng, 300+rng.Intn(1500))
		want[i] = pipe.Classify(reads[i])
		seeds[i] = rng.Int63()
	}
	got := make([]Result, channels)
	var wg sync.WaitGroup
	for ch := 0; ch < channels; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			sess := pipe.NewSession()
			got[ch] = feedRandomChunks(rand.New(rand.NewSource(seeds[ch])), sess, reads[ch], 200)
		}(ch)
	}
	wg.Wait()
	for ch := range got {
		// Stats are excluded: hw cycle/DRAM accounting is identical per
		// extension but Latency derives from the session's own cumulative
		// cycle count, which matches here too — compare everything.
		if !reflect.DeepEqual(got[ch], want[ch]) {
			t.Errorf("channel %d: scheduled session diverged:\ngot  %+v\nwant %+v", ch, got[ch], want[ch])
		}
	}
}

// TestPipelineClassifyIsSession pins the one read path: on sw, hw and
// gpu pipelines under a multi-stage schedule, one-shot Pipeline.Classify
// equals a pipeline session fed the whole read and finalized, bit for bit
// (PerStage and Stats included), and an unsharded pipeline schedules one
// task per evaluated stage — Classify borrows an instance per stage
// chunk, never once for the whole read.
func TestPipelineClassifyIsSession(t *testing.T) {
	rng := rand.New(rand.NewSource(117))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 1400)
	stages := []sdtw.Stage{
		{PrefixSamples: 300, Threshold: 300 * 30},
		{PrefixSamples: 700, Threshold: 700 * 30},
		{PrefixSamples: 1200, Threshold: 1 << 30},
	}
	factories := map[string]func() (*Backend, error){
		"sw":  func() (*Backend, error) { return NewSoftware(ref, cfg) },
		"hw":  func() (*Backend, error) { return NewHardware(ref, cfg) },
		"gpu": func() (*Backend, error) { return NewGPU(ref, cfg, gpu.TitanXP()) },
	}
	reads := [][]int16{nil, randomRead(rng, 150), randomRead(rng, 700)}
	for i := 0; i < 5; i++ {
		reads = append(reads, randomRead(rng, 200+rng.Intn(1400)))
	}
	for name, factory := range factories {
		pipe, err := NewPipeline(factory, 2, stages)
		if err != nil {
			t.Fatal(err)
		}
		for i, read := range reads {
			before := pipe.SchedStats().Completed
			got := pipe.Classify(read)
			tasks := pipe.SchedStats().Completed - before
			if tasks != int64(len(got.PerStage)) {
				t.Errorf("%s read %d: Classify ran %d scheduler tasks over %d stages", name, i, tasks, len(got.PerStage))
			}
			sess := pipe.NewSession()
			sess.Feed(read)
			if want := sess.Finalize(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s read %d: Classify diverged from a session fed once:\ngot  %+v\nwant %+v", name, i, got, want)
			}
		}
	}
}

// instrumentedSession builds a Session over the software kernel whose
// release callback counts invocations — the fixture for the
// exactly-one-release lifecycle tests.
func instrumentedSession(t *testing.T, ref []int8, stages []sdtw.Stage, releases *int) *Session {
	t.Helper()
	sw, err := NewSoftware(ref, sdtw.DefaultIntConfig())
	if err != nil {
		t.Fatal(err)
	}
	row := sdtw.NewRow(len(ref))
	extend := func(row *sdtw.Row, chunk []int8, stats *Stats) (sdtw.IntResult, error) {
		return sw.k.extend(row, chunk, stats), nil
	}
	return newSession(stages, &sessionState{row: row}, extend, func(*sessionState) { *releases++ })
}

// TestSessionLeftoverPastLastStage: a chunk that crosses the last stage
// boundary decides there; trailing samples are ignored, later Feeds and
// Finalizes return the decided result unchanged, and the DP row is
// released exactly once.
func TestSessionLeftoverPastLastStage(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	ref := randomRef(rng, 1200)
	stages := []sdtw.Stage{{PrefixSamples: 500, Threshold: 1 << 30}}
	releases := 0
	sess := instrumentedSession(t, ref, stages, &releases)
	read := randomRead(rng, 520)
	res, done := sess.Feed(read)
	if !done || res.Decision != sdtw.Accept || res.SamplesUsed != 500 {
		t.Fatalf("crossing the last boundary: done=%v %+v, want Accept on 500 samples", done, res)
	}
	if sess.SamplesBuffered() != 0 {
		t.Errorf("decided session still buffers %d samples", sess.SamplesBuffered())
	}
	if late, d := sess.Feed(randomRead(rng, 100)); !d || !reflect.DeepEqual(late, res) {
		t.Error("Feed past the last stage changed the decided result")
	}
	if fin := sess.Finalize(); !reflect.DeepEqual(fin, res) {
		t.Error("Finalize past the last stage changed the decided result")
	}
	sess.Finalize()
	if releases != 1 {
		t.Errorf("row released %d times, want exactly 1", releases)
	}
}

// TestSessionFeedAfterFinalize: Finalize on buffered partial signal
// decides the read; a Feed arriving afterwards is ignored and reports the
// finalized result, with no second row release.
func TestSessionFeedAfterFinalize(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	ref := randomRef(rng, 1200)
	stages := []sdtw.Stage{{PrefixSamples: 500, Threshold: 1 << 30}}
	releases := 0
	sess := instrumentedSession(t, ref, stages, &releases)
	if _, done := sess.Feed(randomRead(rng, 300)); done {
		t.Fatal("decided before the boundary")
	}
	fin := sess.Finalize()
	if fin.Decision == sdtw.Continue || fin.SamplesUsed != 300 {
		t.Fatalf("Finalize on buffered partial stage = %+v, want a decision on 300 samples", fin)
	}
	res, done := sess.Feed(randomRead(rng, 400))
	if !done || !reflect.DeepEqual(res, fin) {
		t.Errorf("Feed after Finalize: done=%v, result drifted from %+v to %+v", done, fin, res)
	}
	if releases != 1 {
		t.Errorf("row released %d times, want exactly 1", releases)
	}
}

// TestSessionStreamEmptyRead locks in the zero-length-read Continue guard
// on Stream, including for sessions obtained via Pipeline.NewSession: no
// chunk reaches the normalizer, the verdict stays Continue, and the DP
// row is released exactly once despite Stream's internal Finalize plus
// any caller-side Finalize.
func TestSessionStreamEmptyRead(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	ref := randomRef(rng, 1200)
	stages := []sdtw.Stage{{PrefixSamples: 500, Threshold: 500 * 3}}
	releases := 0
	sess := instrumentedSession(t, ref, stages, &releases)
	res, decided := sess.Stream(nil, 400)
	if decided || res.Decision != sdtw.Continue || len(res.PerStage) != 0 {
		t.Fatalf("empty Stream: decided=%v %+v, want undecided Continue", decided, res)
	}
	sess.Finalize()
	if releases != 1 {
		t.Errorf("row released %d times, want exactly 1", releases)
	}

	pipe, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, sdtw.DefaultIntConfig()) }, 1, stages)
	if err != nil {
		t.Fatal(err)
	}
	ps := pipe.NewSession()
	pres, pdecided := ps.Stream(nil, 400)
	if pdecided || pres.Decision != sdtw.Continue || ps.Decided() {
		t.Fatalf("pipeline empty Stream: decided=%v %+v", pdecided, pres)
	}
	if ps.row != nil {
		t.Error("pipeline session row not returned to the pool after Stream's Finalize")
	}
	if fin := ps.Finalize(); !reflect.DeepEqual(fin, pres) {
		t.Error("second Finalize changed the empty-read result")
	}
	// The pool must still hand out distinct rows afterwards — a double
	// release would alias two live sessions onto one row.
	s1 := pipe.NewSession()
	s2 := pipe.NewSession()
	if s1.row == s2.row {
		t.Error("two live sessions share a DP row after empty-read Finalize")
	}
}

// TestSessionAbandon: abandoning an undecided session releases its row
// exactly once, freezes its Continue result, and composes with Finalize
// in either order.
func TestSessionAbandon(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	ref := randomRef(rng, 1200)
	stages := []sdtw.Stage{{PrefixSamples: 400, Threshold: 1 << 30}, {PrefixSamples: 1200, Threshold: 1 << 30}}
	releases := 0
	sess := instrumentedSession(t, ref, stages, &releases)
	read := randomRead(rng, 600)
	if _, done := sess.Feed(read); done {
		t.Fatal("decided with accept-all mid-schedule")
	}
	res := sess.Abandon()
	if res.Decision != sdtw.Continue || len(res.PerStage) != 1 {
		t.Fatalf("abandoned result = %+v, want Continue with the stage-1 record", res)
	}
	if sess.Decided() {
		t.Error("abandoned session reports Decided")
	}
	if late, done := sess.Feed(randomRead(rng, 800)); !done || !reflect.DeepEqual(late, res) {
		t.Error("Feed after Abandon changed the result")
	}
	if fin := sess.Finalize(); !reflect.DeepEqual(fin, res) {
		t.Error("Finalize after Abandon changed the result")
	}
	if again := sess.Abandon(); !reflect.DeepEqual(again, res) {
		t.Error("second Abandon changed the result")
	}
	if releases != 1 {
		t.Errorf("row released %d times, want exactly 1", releases)
	}
}
