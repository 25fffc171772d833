// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (DESIGN.md §3 maps each to its modules). Each
// benchmark regenerates the artifact at Fast scale; run a single one with
//
//	go test -bench=BenchmarkFigure17a -benchtime=1x .
//
// and everything with
//
//	go test -bench=. -benchmem .
//
// The heavy accuracy benchmarks take 10-170 s per iteration, so the
// default 1 s benchtime executes them exactly once. Kernel-level
// micro-benchmarks live next to their packages (internal/sdtw,
// internal/hw, internal/align, ...).
package squigglefilter

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"squigglefilter/internal/engine"
	"squigglefilter/internal/experiments"
	"squigglefilter/internal/genome"
	"squigglefilter/internal/hw"
	"squigglefilter/internal/minion"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/squiggle"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(experiments.Fast, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkFigure2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFigure5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFigure10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFigure16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFigure17a(b *testing.B) { benchExperiment(b, "fig17a") }
func BenchmarkFigure17b(b *testing.B) { benchExperiment(b, "fig17b") }
func BenchmarkFigure17c(b *testing.B) { benchExperiment(b, "fig17c") }
func BenchmarkFigure18(b *testing.B)  { benchExperiment(b, "fig18") }
func BenchmarkFigure19(b *testing.B)  { benchExperiment(b, "fig19") }
func BenchmarkFigure20(b *testing.B)  { benchExperiment(b, "fig20") }
func BenchmarkFigure21(b *testing.B)  { benchExperiment(b, "fig21") }
func BenchmarkHeadline(b *testing.B)  { benchExperiment(b, "headline") }

// BenchmarkDetectorClassify measures the public API's software
// classification path at the paper's default operating point
// (2,000-sample prefix against a SARS-CoV-2-scale reference).
func BenchmarkDetectorClassify(b *testing.B) {
	det, g := testDetector(b, nil)
	targets, _ := simReads(b, g, 1)
	samples := targets[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Classify(samples)
	}
}

// BenchmarkDetectorClassifyHW measures the cycle-accurate hardware model
// on the same operating point.
func BenchmarkDetectorClassifyHW(b *testing.B) {
	det, g := testDetector(b, nil)
	targets, _ := simReads(b, g, 1)
	samples := targets[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.ClassifyHW(samples)
	}
}

// benchBatch reports classified raw samples/sec for a worker-pool batch —
// the throughput trajectory metric for the engine pipeline. workers 1 is
// the serial baseline ClassifyBatch speedups are measured against.
func benchBatch(b *testing.B, workers int) {
	b.Helper()
	g := &genome.Genome{Name: "bench-virus", Seq: genome.Random(rand.New(rand.NewSource(1)), 5000)}
	det, err := NewDetector(DetectorConfig{Name: g.Name, Sequence: g.Seq.String(), Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	targets, hosts := simReads(b, g, 16)
	reads := append(targets, hosts...)
	var totalSamples int64
	for _, r := range reads {
		n := len(r)
		if n > 2000 {
			n = 2000 // the default single stage consumes at most 2,000
		}
		totalSamples += int64(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.ClassifyBatch(reads)
	}
	b.StopTimer()
	samplesPerSec := float64(totalSamples) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(samplesPerSec, "samples/sec")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkClassifyBatch is the engine's headline throughput benchmark at
// 8 workers; compare against BenchmarkClassifyBatchSerial for the speedup
// (requires ≥ 8 hardware threads to show its full effect).
func BenchmarkClassifyBatch(b *testing.B)       { benchBatch(b, 8) }
func BenchmarkClassifyBatchSerial(b *testing.B) { benchBatch(b, 1) }

// benchPanel builds an nTargets panel whose first target is the genome
// the benchmark reads come from (single stage at the paper's 2,000-sample
// operating point) and whose decoys run a longer accept-anything schedule
// (stages at 1,000 and 4,000) — the heterogeneous-schedule case where
// cross-target pruning pays: once the true target accepts at 2,000
// samples, dominated decoys stop consuming DP instead of running to
// 4,000.
func benchPanel(b *testing.B, nTargets int) (*Panel, [][]int16) {
	b.Helper()
	g := &genome.Genome{Name: "bench-virus", Seq: genome.Random(rand.New(rand.NewSource(1)), 5000)}
	cfgs := []DetectorConfig{{Name: g.Name, Sequence: g.Seq.String()}}
	rng := rand.New(rand.NewSource(33))
	for i := 1; i < nTargets; i++ {
		cfgs = append(cfgs, DetectorConfig{
			Name:     fmt.Sprintf("decoy-%d", i),
			Sequence: genome.Random(rng, 5000).String(),
			Stages: []Stage{
				{PrefixSamples: 1000, Threshold: 1 << 30},
				{PrefixSamples: 4000, Threshold: 1 << 30},
			},
		})
	}
	panel, err := NewPanel(cfgs)
	if err != nil {
		b.Fatal(err)
	}
	targets, _ := simReads(b, g, 16)
	return panel, targets
}

// benchPanelSession streams target reads through PanelSessions in
// 400-sample deliveries and reports two metrics: samples/sec counts raw
// read samples the panel consumed from the sequencer (throughput a live
// loop sees), and dpsamples/read counts samples that entered dynamic
// programming summed over targets — the work cross-target pruning
// shrinks. Compare prune=off and prune=on at equal target counts for the
// pruning win; compare targets=1 against the multi-target runs for the
// panel's marginal cost.
func benchPanelSession(b *testing.B, nTargets int, prune bool) {
	panel, reads := benchPanel(b, nTargets)
	policy := PrunePolicy{Enabled: prune}
	const chunk = 400
	var fed, dp int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fed, dp = 0, 0
		for _, r := range reads {
			sess, err := panel.NewSession(policy)
			if err != nil {
				b.Fatal(err)
			}
			sess.Stream(r, chunk)
			fed += int64(sess.SamplesFed())
			dp += sess.DPSamples()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(fed)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
	b.ReportMetric(float64(dp)/float64(len(reads)), "dpsamples/read")
	b.ReportMetric(float64(len(reads))*float64(b.N)/b.Elapsed().Seconds(), "reads/sec")
	b.ReportMetric(float64(nTargets), "targets")
}

// BenchmarkPanelSession is the multi-target scaling benchmark: panels of
// 1, 4, and 8 targets, with and without cross-target pruning. CI uploads
// its -json output as BENCH_panel.json.
func BenchmarkPanelSession(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		for _, prune := range []bool{false, true} {
			b.Run(fmt.Sprintf("targets=%d/prune=%v", n, prune), func(b *testing.B) {
				benchPanelSession(b, n, prune)
			})
		}
	}
}

// BenchmarkCascade1000 is the thousand-target workload the cascade
// exists for: a 1,000-genome panel at the default cascade configuration,
// reads drawn from a handful of present targets. The untimed exact pass
// over the full panel supplies both the per-read ground truth and the
// baseline DP cost; the timed loop then streams the same reads through
// the cascade. Reported metrics: dpsamples/read converts both tiers'
// DP cells into exact-tier sample equivalents (references are uniform
// length, so cells/refLevels is exact), recall is the fraction of
// exact-attributed reads the cascade attributes identically, and xfewer
// is the exact panel's DP samples over the cascade's — the acceptance
// bar is >= 10 at recall 1.0. CI uploads the -json output as
// BENCH_cascade.json and ratchets dpsamples/read (lower is better).
func BenchmarkCascade1000(b *testing.B) {
	const nTargets = 1000
	rng := rand.New(rand.NewSource(7))
	genomes := make([]*genome.Genome, nTargets)
	cfgs := make([]DetectorConfig, nTargets)
	for i := range cfgs {
		genomes[i] = &genome.Genome{
			Name: fmt.Sprintf("target-%03d", i),
			Seq:  genome.Random(rng, 800),
		}
		cfgs[i] = DetectorConfig{Name: genomes[i].Name, Sequence: genomes[i].Seq.String(), Workers: 1}
	}
	cp, err := NewCascadePanel(cfgs, CascadeConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cp.Close)
	sim, err := squiggle.NewSimulator(pore.DefaultModel(), squiggle.DefaultConfig(), 9)
	if err != nil {
		b.Fatal(err)
	}
	var reads [][]int16
	for _, gi := range []int{3, 250, 611, 940} { // the sparse present set
		for r := 0; r < 2; r++ {
			reads = append(reads, sim.ReadFrom(genomes[gi], rng.Intn(100), 700, rng.Intn(2) == 1).Samples)
		}
	}
	det, err := NewDetector(DetectorConfig{Name: "probe", Sequence: genomes[0].Seq.String()})
	if err != nil {
		b.Fatal(err)
	}
	refLevels := float64(det.ReferenceSamples())

	exact := cp.Panel()
	winners := make([]int, len(reads))
	var exactDP int64
	for i, r := range reads {
		sess, err := exact.NewSession(PrunePolicy{})
		if err != nil {
			b.Fatal(err)
		}
		v, _ := sess.Stream(r, 400)
		winners[i] = v.Best
		exactDP += sess.DPSamples()
	}

	var dpCells, coarseCells, hit, attributed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dpCells, coarseCells, hit, attributed = 0, 0, 0, 0
		for ri, r := range reads {
			sess, err := cp.NewSession(PrunePolicy{})
			if err != nil {
				b.Fatal(err)
			}
			v, _ := sess.Stream(r, 400)
			dpCells += sess.DPCells()
			coarseCells += sess.CoarseDPCells()
			if winners[ri] >= 0 {
				attributed++
				if v.Best == winners[ri] {
					hit++
				}
			}
		}
	}
	b.StopTimer()
	cascadeSamples := float64(dpCells) / refLevels
	b.ReportMetric(cascadeSamples/float64(len(reads)), "dpsamples/read")
	b.ReportMetric(float64(len(reads))*float64(b.N)/b.Elapsed().Seconds(), "reads/sec")
	if attributed > 0 {
		b.ReportMetric(float64(hit)/float64(attributed), "recall")
	}
	b.ReportMetric(float64(exactDP)/cascadeSamples, "xfewer")
	// The coarse tier's DP cells per read (CI ratchets this, lower is
	// better).
	b.ReportMetric(float64(coarseCells)/float64(len(reads)), "coarsecells/read")
	b.ReportMetric(nTargets, "targets")
}

// BenchmarkPanelClassifySingle pins the single-target Panel.Classify
// allocation count: the target now classifies inline on the caller's
// goroutine (before the bounded-worker fix this path spawned a goroutine
// plus WaitGroup per call — 10 allocs/op, 1669 B/op).
func BenchmarkPanelClassifySingle(b *testing.B) {
	panel, reads := benchPanel(b, 1)
	read := reads[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		panel.Classify(read)
	}
}

// BenchmarkShardedClassify measures per-read classification latency
// against shard count: one read at a time streams through a session whose
// DP row wavefronts across the worker pool in reference shards. With
// shards=1 the row extends serially, so per-read latency is flat no matter
// how many workers idle; at shards=2/4 the same read's DP divides across
// them (the speedup needs as many hardware threads — this container's CI
// runner may report none). The ms/read metric is the per-read latency the
// shard count is meant to shrink; samples/sec counts classified samples.
// CI uploads the -json output as BENCH_kernel.json.
func BenchmarkShardedClassify(b *testing.B) {
	g := &genome.Genome{Name: "bench-bug", Seq: genome.Random(rand.New(rand.NewSource(1)), 20000)}
	targets, hosts := simReads(b, g, 2)
	reads := append(targets, hosts...)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			det, err := NewDetector(DetectorConfig{
				Name: g.Name, Sequence: g.Seq.String(), Workers: 4, Shards: shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			var consumed int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				consumed = 0
				for _, r := range reads {
					sess := det.NewSession()
					v, _ := sess.Stream(r, 0)
					consumed += int64(v.SamplesUsed)
				}
			}
			b.StopTimer()
			perRead := b.Elapsed().Seconds() / float64(b.N*len(reads))
			b.ReportMetric(perRead*1e3, "ms/read")
			b.ReportMetric(float64(consumed)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
			b.ReportMetric(float64(shards), "shards")
		})
	}
}

// BenchmarkSessionStream measures the incremental streaming path: every
// read is fed to a fresh Session in 400-sample chunks (~0.1 s of signal
// per delivery, the live Read Until granularity). The samples/sec metric
// counts classified samples, so the overhead over one-shot ClassifyBatch
// is the per-chunk staging cost — the streaming tax the Session layer is
// designed to keep negligible.
func BenchmarkSessionStream(b *testing.B) {
	g := &genome.Genome{Name: "bench-virus", Seq: genome.Random(rand.New(rand.NewSource(1)), 5000)}
	det, err := NewDetector(DetectorConfig{Name: g.Name, Sequence: g.Seq.String()})
	if err != nil {
		b.Fatal(err)
	}
	targets, hosts := simReads(b, g, 16)
	reads := append(targets, hosts...)
	const chunk = 400
	var consumed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		consumed = 0
		for _, r := range reads {
			sess := det.NewSession()
			v, _ := sess.Stream(r, chunk)
			consumed += int64(v.SamplesUsed)
		}
	}
	b.StopTimer()
	samplesPerSec := float64(consumed) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(samplesPerSec, "samples/sec")
}

// BenchmarkSchedulerThroughput measures the unified EDF scheduler's
// dispatch overhead: many small classifications flood the queue of a
// small instance pool, so the tasks/sec figure is dominated by
// Acquire/Release and EDF heap work rather than DP (a tiny reference
// keeps each task's DP in the microsecond range).
func BenchmarkSchedulerThroughput(b *testing.B) {
	g := &genome.Genome{Name: "bench-virus", Seq: genome.Random(rand.New(rand.NewSource(2)), 200)}
	det, err := NewDetector(DetectorConfig{
		Name:     g.Name,
		Sequence: g.Seq.String(),
		Stages:   []Stage{{PrefixSamples: 100, Threshold: 300}},
		Workers:  4,
		Realtime: RealtimeConfig{Channels: 512, ClockHz: 4000},
	})
	if err != nil {
		b.Fatal(err)
	}
	reads := make([][]int16, 256)
	rng := rand.New(rand.NewSource(3))
	for i := range reads {
		reads[i] = make([]int16, 100)
		for j := range reads[i] {
			reads[i][j] = int16(rng.Intn(1024))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.ClassifyBatch(reads)
	}
	b.StopTimer()
	st := det.SchedStats()
	b.ReportMetric(float64(len(reads))*float64(b.N)/b.Elapsed().Seconds(), "tasks/sec")
	b.ReportMetric(float64(st.LatencyP99)/1e6, "p99-ms")
}

// benchFlowCell runs the 512-channel virtual-time flow cell on a
// back-end's cost model and reports decisions/sec of simulation
// throughput plus the measured keep-up statistics (the verdict itself is
// pinned by TestFlowCell512KeepUpVerdict).
func benchFlowCell(b *testing.B, backend string) {
	b.Helper()
	g := &genome.Genome{Name: "bench-virus", Seq: genome.Random(rand.New(rand.NewSource(4)), 1000)}
	hostG := &genome.Genome{Name: "bench-host", Seq: genome.Random(rand.New(rand.NewSource(5)), 40000)}
	pool, err := flowcellBenchPool(g, hostG, backend)
	if err != nil {
		b.Fatal(err)
	}
	var decisions int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pool.run()
		if err != nil {
			b.Fatal(err)
		}
		decisions = res.Decisions
	}
	b.StopTimer()
	b.ReportMetric(float64(decisions)*float64(b.N)/b.Elapsed().Seconds(), "decisions/sec")
}

func BenchmarkFlowCell512(b *testing.B) {
	b.Run("sw", func(b *testing.B) { benchFlowCell(b, "sw") })
	b.Run("hw", func(b *testing.B) { benchFlowCell(b, "hw") })
}

// flowcellBenchPool prepares a reusable flow-cell configuration: read
// pool, verdict pipeline, and the chosen back-end's cost model.
type benchFlowCellPool struct {
	pipe *engine.Pipeline
	cfg  minion.FlowCellConfig
	src  minion.ReadSource
}

func flowcellBenchPool(virus, host *genome.Genome, backend string) (*benchFlowCellPool, error) {
	sim, err := squiggle.NewSimulator(pore.DefaultModel(), squiggle.DefaultConfig(), 6)
	if err != nil {
		return nil, err
	}
	targets, hosts := sim.FixedLengthPair(virus, host, 12, 500, 1500)
	ref := pore.DefaultModel().BuildReference(virus)
	stages := []sdtw.Stage{{PrefixSamples: 400, Threshold: 1200}}
	pipe, err := engine.NewPipeline(func() (*engine.Backend, error) {
		return engine.NewSoftware(ref.Int8, sdtw.DefaultIntConfig())
	}, 4, stages)
	if err != nil {
		return nil, err
	}
	cfg := minion.FlowCellConfig{
		Config:       minion.DefaultConfig(),
		ChunkSamples: 400,
		Servers:      4,
		DurationSec:  30,
		Seed:         7,
	}
	cfg.BlockRatePerHour = 0
	if backend == "hw" {
		hwPipe, err := engine.NewPipeline(func() (*engine.Backend, error) {
			return engine.NewHardware(ref.Int8, sdtw.DefaultIntConfig())
		}, 1, stages)
		if err != nil {
			return nil, err
		}
		cfg.Servers = hw.NumTiles
		cfg.Service = hwPipe.ServiceTime
	}
	return &benchFlowCellPool{pipe: pipe, cfg: cfg, src: minion.MixedPoolSource(targets, hosts, 0.15)}, nil
}

func (p *benchFlowCellPool) run() (minion.FlowCellResult, error) {
	return minion.RunFlowCell(p.pipe, p.cfg, p.src)
}
