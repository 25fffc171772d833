package squigglefilter

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"squigglefilter/internal/genome"
	"squigglefilter/internal/hw"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/squiggle"
)

func testDetector(t testing.TB, stages []Stage) (*Detector, *genome.Genome) {
	t.Helper()
	g := &genome.Genome{Name: "test-virus", Seq: genome.Random(rand.New(rand.NewSource(1)), 5000)}
	det, err := NewDetector(DetectorConfig{Name: "test-virus", Sequence: g.Seq.String(), Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	return det, g
}

func simReads(t testing.TB, target *genome.Genome, n int) (targets, hosts [][]int16) {
	t.Helper()
	host := &genome.Genome{Name: "host", Seq: genome.Random(rand.New(rand.NewSource(2)), 100000)}
	sim, err := squiggle.NewSimulator(pore.DefaultModel(), squiggle.DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ts, hs := sim.BalancedPair(target, host, n, 900)
	for i := range ts {
		targets = append(targets, ts[i].Samples)
		hosts = append(hosts, hs[i].Samples)
	}
	return targets, hosts
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := NewDetector(DetectorConfig{Sequence: "NOTDNA!"}); err == nil {
		t.Error("invalid sequence accepted")
	}
	if _, err := NewDetector(DetectorConfig{Sequence: "ACGT"}); err == nil {
		t.Error("too-short reference accepted")
	}
	// int32 is the only software kernel; the deprecated field rejects
	// everything else.
	valid := genome.Random(rand.New(rand.NewSource(3)), 1000).String()
	for _, k := range []Kernel{KernelInt16, Kernel(7)} {
		if _, err := NewDetector(DetectorConfig{Sequence: valid, Kernel: k}); err == nil {
			t.Errorf("Kernel %v accepted", k)
		}
	}
	// A realtime clock must give a positive deadline window: non-finite
	// clocks, and positive clocks whose 400-sample window rounds to zero
	// (huge) or overflows time.Duration (tiny), are errors, not a silent
	// best-effort detector. Finite clocks <= 0 select best-effort.
	for _, hz := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 1e-8, 1e300} {
		if _, err := NewDetector(DetectorConfig{Sequence: valid, Realtime: RealtimeConfig{ClockHz: hz}}); err == nil {
			t.Errorf("ClockHz %v accepted", hz)
		}
	}
	for _, hz := range []float64{-1, 0, 4000} {
		if _, err := NewDetector(DetectorConfig{Sequence: valid, Realtime: RealtimeConfig{ClockHz: hz}}); err != nil {
			t.Errorf("ClockHz %v rejected: %v", hz, err)
		}
	}
	// A genome beyond one tile's 100 KB buffer now builds: the hardware
	// model shards it across cooperating tiles (it was rejected before
	// multi-tile support).
	long := genome.Random(rand.New(rand.NewSource(4)), 60001)
	det, err := NewDetector(DetectorConfig{Sequence: long.String()})
	if err != nil {
		t.Errorf("reference over one tile's buffer rejected despite multi-tile support: %v", err)
	} else if det.ReferenceSamples() <= hw.RefBufferBytes {
		t.Errorf("long genome reference only %d samples — fixture no longer exercises the multi-tile path", det.ReferenceSamples())
	}
	// The whole device's combined buffers are still a hard ceiling.
	huge := genome.Random(rand.New(rand.NewSource(5)), 300000)
	if _, err := NewDetector(DetectorConfig{Sequence: huge.String()}); err == nil {
		t.Error("reference exceeding all five tiles' buffers accepted")
	}
}

// TestDetectorShardedParity threads DetectorConfig.Shards end to end:
// every public classification path of a sharded detector — software
// one-shot, batch, streaming sessions, and the multi-tile hardware model —
// must be bit-identical to the unsharded detector.
func TestDetectorShardedParity(t *testing.T) {
	det, g := testDetector(t, nil)
	sharded, err := NewDetector(DetectorConfig{Name: g.Name, Sequence: g.Seq.String(), Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Shards() != 3 {
		t.Fatalf("resolved shards = %d, want 3", sharded.Shards())
	}
	targets, hosts := simReads(t, g, 6)
	reads := append(targets, hosts...)
	want := det.ClassifyBatch(reads)
	got := sharded.ClassifyBatch(reads)
	for i := range reads {
		if got[i] != want[i] {
			t.Fatalf("read %d: sharded batch %+v != plain %+v", i, got[i], want[i])
		}
		if v := sharded.Classify(reads[i]); v != want[i] {
			t.Fatalf("read %d: sharded Classify %+v != plain %+v", i, v, want[i])
		}
		sess := sharded.NewSession()
		if v, _ := sess.Stream(reads[i], 400); v != want[i] {
			t.Fatalf("read %d: sharded session %+v != plain %+v", i, v, want[i])
		}
		hv := sharded.ClassifyHW(reads[i])
		if hv.Verdict != want[i] {
			t.Fatalf("read %d: sharded hw %+v != plain %+v", i, hv.Verdict, want[i])
		}
		if hv.DRAMBytes <= det.ClassifyHW(reads[i]).DRAMBytes {
			t.Fatalf("read %d: multi-tile hw reported no extra halo DRAM traffic", i)
		}
	}
}

// TestDetectorDefaultShards: Shards: 0 spreads a Detector's software
// paths over min(Workers, GOMAXPROCS) shards, a Workers: 1 detector and a
// panel target stay unsharded, and the hardware model does not follow the software default — a
// default detector's ClassifyHW reports the cycles, tiles and DRAM bytes
// of an explicit Shards: 1 detector, and its software verdicts match that
// detector's. Default detectors built and dropped own no goroutine and
// leave no heap behind.
func TestDetectorDefaultShards(t *testing.T) {
	g := &genome.Genome{Name: "default-shards", Seq: genome.Random(rand.New(rand.NewSource(7)), 3000)}
	seq := g.Seq.String()
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, want int }{
		{2, min(2, procs)},
		{0, min(runtime.NumCPU(), procs)},
		{1, 1},
	} {
		det, err := NewDetector(DetectorConfig{Sequence: seq, Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if det.Shards() != tc.want {
			t.Errorf("Workers %d: default Shards() = %d, want %d", tc.workers, det.Shards(), tc.want)
		}
	}

	_, _, panelDets, err := buildTargets([]DetectorConfig{
		{Name: "default", Sequence: seq, Workers: 2},
		{Name: "explicit", Sequence: seq, Workers: 2, Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := []int{panelDets[0].Shards(), panelDets[1].Shards()}; got[0] != 1 || got[1] != 2 {
		t.Errorf("panel targets resolved to %v shards, want [1 2]", got)
	}

	def, err := NewDetector(DetectorConfig{Sequence: seq, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewDetector(DetectorConfig{Sequence: seq, Workers: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	targets, hosts := simReads(t, g, 3)
	reads := append(targets, hosts...)
	got, want := def.ClassifyBatch(reads), one.ClassifyBatch(reads)
	for i, r := range reads {
		if got[i] != want[i] {
			t.Errorf("read %d: default batch %+v, Shards: 1 %+v", i, got[i], want[i])
		}
		if v := def.Classify(r); v != want[i] {
			t.Errorf("read %d: default Classify %+v, Shards: 1 %+v", i, v, want[i])
		}
		if hd, h1 := def.ClassifyHW(r), one.ClassifyHW(r); hd != h1 {
			t.Errorf("read %d: default ClassifyHW %+v, Shards: 1 %+v", i, hd, h1)
		}
	}

	// The first sharded detector above started the process's shard
	// helpers; a thousand more start nothing and keep nothing alive.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		det, err := NewDetector(DetectorConfig{Sequence: seq})
		if err != nil {
			t.Fatal(err)
		}
		det.Classify(reads[i%len(reads)][:500])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("1,000 default detectors left %d goroutines, %d before", n, goroutines)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Errorf("1,000 dropped default detectors grew the live heap by %d bytes", grew)
	}
}

func TestDetectorEndToEnd(t *testing.T) {
	det, g := testDetector(t, nil)
	targets, hosts := simReads(t, g, 12)

	threshold, tpr, fpr := det.CalibrateThreshold(targets, hosts, 2000)
	if tpr < 0.75 || fpr > 0.2 {
		t.Fatalf("calibration weak: threshold=%d tpr=%.2f fpr=%.2f", threshold, tpr, fpr)
	}
	det2, err := NewDetector(DetectorConfig{
		Name:     "test-virus",
		Sequence: g.Seq.String(),
		Stages:   []Stage{{PrefixSamples: 2000, Threshold: threshold}},
	})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, r := range targets {
		v := det2.Classify(r)
		if v.Decision == Accept {
			correct++
		}
		if v.SamplesUsed != 2000 {
			t.Errorf("SamplesUsed = %d", v.SamplesUsed)
		}
	}
	for _, r := range hosts {
		if det2.Classify(r).Decision == Reject {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(targets)+len(hosts)); acc < 0.85 {
		t.Errorf("end-to-end accuracy %.2f, want >= 0.85", acc)
	}
}

func TestDetectorDefaultThresholdWorks(t *testing.T) {
	det, g := testDetector(t, nil)
	targets, hosts := simReads(t, g, 8)
	var c int
	for _, r := range targets {
		if det.Classify(r).Decision == Accept {
			c++
		}
	}
	for _, r := range hosts {
		if det.Classify(r).Decision == Reject {
			c++
		}
	}
	if acc := float64(c) / 16; acc < 0.8 {
		t.Errorf("default-threshold accuracy %.2f", acc)
	}
}

// The hardware path must agree with the software path bit-for-bit on the
// deciding cost.
func TestClassifyHWMatchesSoftware(t *testing.T) {
	det, g := testDetector(t, nil)
	targets, hosts := simReads(t, g, 6)
	for _, r := range append(targets, hosts...) {
		sw := det.Classify(r)
		hv := det.ClassifyHW(r)
		if hv.Cost != sw.Cost {
			t.Fatalf("hw cost %d != sw cost %d", hv.Cost, sw.Cost)
		}
		if hv.Decision != sw.Decision {
			t.Fatalf("hw decision %v != sw %v", hv.Decision, sw.Decision)
		}
		if hv.Cycles <= 0 || hv.Latency <= 0 {
			t.Fatalf("missing hardware stats: %+v", hv)
		}
	}
}

func TestDetectorMultiStage(t *testing.T) {
	det, g := testDetector(t, []Stage{
		{PrefixSamples: 1000, Threshold: 1 << 29},
		{PrefixSamples: 3000, Threshold: 3000 * DefaultThresholdPerSample},
	})
	targets, _ := simReads(t, g, 4)
	v := det.Classify(targets[0])
	if v.Decision != Accept {
		t.Errorf("multi-stage target decision %v (cost %d)", v.Decision, v.Cost)
	}
	if v.SamplesUsed != 3000 {
		t.Errorf("SamplesUsed = %d, want 3000", v.SamplesUsed)
	}
}

func TestPerformanceEnvelope(t *testing.T) {
	det, _ := testDetector(t, nil)
	p := det.Performance()
	if p.LatencyPerRead <= 0 || p.TileSamplesPerSec <= 0 {
		t.Fatalf("degenerate performance: %+v", p)
	}
	if p.DeviceSamplesPerSec != 5*p.TileSamplesPerSec {
		t.Error("device throughput should be 5 tiles")
	}
	if p.AreaMM2 < 13 || p.AreaMM2 > 13.5 || p.PowerW < 14 || p.PowerW > 14.5 {
		t.Errorf("area/power off: %+v", p)
	}
	if det.ReferenceSamples() != 2*(5000-5) {
		t.Errorf("reference samples %d", det.ReferenceSamples())
	}
	if det.Name() != "test-virus" {
		t.Errorf("name %q", det.Name())
	}
}

// TestSessionMatchesClassify drives the public streaming API with small
// chunks and checks every verdict is identical to one-shot Classify —
// including concurrent sessions sharing the detector's worker pool.
func TestSessionMatchesClassify(t *testing.T) {
	det, g := testDetector(t, []Stage{
		{PrefixSamples: 1000, Threshold: 1000 * (DefaultThresholdPerSample + 1)},
		{PrefixSamples: 3000, Threshold: 3000 * DefaultThresholdPerSample},
	})
	targets, hosts := simReads(t, g, 6)
	reads := append(targets, hosts...)

	var wg sync.WaitGroup
	for i, r := range reads {
		wg.Add(1)
		go func(i int, r []int16) {
			defer wg.Done()
			want := det.Classify(r)
			sess := det.NewSession()
			var got Verdict
			done := false
			for off := 0; off < len(r) && !done; off += 333 {
				end := off + 333
				if end > len(r) {
					end = len(r)
				}
				got, done = sess.Feed(r[off:end])
			}
			if !done {
				got = sess.Finalize()
			}
			if got != want {
				t.Errorf("read %d: streamed verdict %+v != one-shot %+v", i, got, want)
			}
			if sess.Decided() != (want.Decision != Continue) {
				t.Errorf("read %d: Decided() inconsistent with verdict %v", i, want.Decision)
			}
			// Stream is the chunk loop above packaged as one call.
			sess2 := det.NewSession()
			if v2, _ := sess2.Stream(r, 333); v2 != want {
				t.Errorf("read %d: Stream verdict %+v != one-shot %+v", i, v2, want)
			}
		}(i, r)
	}
	wg.Wait()
}

func TestDecisionString(t *testing.T) {
	if Continue.String() != "continue" || Accept.String() != "accept" || Reject.String() != "reject" {
		t.Error("decision names wrong")
	}
}

func TestMatchBonusKnobs(t *testing.T) {
	g := genome.Random(rand.New(rand.NewSource(5)), 2000)
	noBonus, err := NewDetector(DetectorConfig{Sequence: g.String(), MatchBonus: -1})
	if err != nil {
		t.Fatal(err)
	}
	custom, err := NewDetector(DetectorConfig{Sequence: g.String(), MatchBonus: 20, BonusCap: 5})
	if err != nil {
		t.Fatal(err)
	}
	if noBonus.cfg.MatchBonus != 0 {
		t.Error("MatchBonus -1 should disable the bonus")
	}
	if custom.cfg.MatchBonus != 20 || custom.cfg.BonusCap != 5 {
		t.Errorf("custom bonus not applied: %+v", custom.cfg)
	}
}

// TestRealtimeConfigAndSchedStats: a detector provisioned for real-time
// service schedules every DP task with a decision deadline, classifies
// bit-identically to a best-effort detector, and reports scheduler
// accounting through the public SchedStats.
func TestRealtimeConfigAndSchedStats(t *testing.T) {
	g := &genome.Genome{Name: "rt-virus", Seq: genome.Random(rand.New(rand.NewSource(9)), 3000)}
	base, err := NewDetector(DetectorConfig{Name: g.Name, Sequence: g.Seq.String(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewDetector(DetectorConfig{
		Name:     g.Name,
		Sequence: g.Seq.String(),
		Workers:  2,
		Realtime: RealtimeConfig{Channels: 512, ClockHz: 4000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Realtime().Channels != 512 || rt.Realtime().ClockHz != 4000 {
		t.Fatalf("Realtime() = %+v", rt.Realtime())
	}

	targets, hosts := simReads(t, g, 4)
	reads := append(targets, hosts...)
	baseV := base.ClassifyBatch(reads)
	rtV := rt.ClassifyBatch(reads)
	for i := range reads {
		if baseV[i] != rtV[i] {
			t.Fatalf("read %d: realtime verdict %+v != best-effort %+v", i, rtV[i], baseV[i])
		}
	}

	st := rt.SchedStats()
	if st.Instances != 2 {
		t.Errorf("Instances = %d, want 2", st.Instances)
	}
	if st.Completed < int64(len(reads)) {
		t.Errorf("Completed = %d, want >= %d", st.Completed, len(reads))
	}
	if st.Utilization <= 0 || st.Utilization > 1 {
		t.Errorf("Utilization = %v out of (0, 1]", st.Utilization)
	}
	if st.LatencyP50 <= 0 || st.LatencyP99 < st.LatencyP50 {
		t.Errorf("latency percentiles inconsistent: p50=%v p99=%v", st.LatencyP50, st.LatencyP99)
	}
	// A best-effort detector never records lateness.
	if got := base.SchedStats(); got.Late != 0 {
		t.Errorf("best-effort detector recorded %d late tasks", got.Late)
	}
}
