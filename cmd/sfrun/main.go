// Command sfrun classifies a SQGL dataset against a reference on any of
// the unified classification back-ends and reports the confusion matrix,
// a decision summary, scheduler statistics, and classify-only throughput.
//
//	sfrun -data sample.sqgl -ref ref.txt [-threshold N] [-prefix 2000]
//	      [-backend sw|hw|gpu] [-workers N] [-shards S]
//	      [-stream] [-chunk 400]
//	sfrun -data sample.sqgl -ref ref.txt -rt [-channels 512] [-rt-sec 60]
//	      [-backend sw|hw|gpu]
//	sfrun -data sample.sqgl -panel refA.txt,refB.txt,... [-stream]
//	      [-cascade [-topk K] [-decimate D]] [-prune-margin M]
//	      [-threshold N] [-prefix 2000] [-shards S]
//
// Without -threshold, the threshold is calibrated on the dataset's ground
// truth (best F1). The scheduler dispatches batch reads (and each read's
// shards) across -workers instances of whichever back-end is selected;
// hw and gpu additionally report their modeled per-read latency (verdicts
// are bit-identical across back-ends).
//
// -shards splits the reference dimension of every classification into S
// shards: the software paths wavefront one read's shards across the
// worker pool (per-read latency, not just batch throughput), and the hw
// back-end gangs up to 5 tiles cooperatively — which is also how
// references beyond one tile's 100 KB buffer are classified at all.
// The default, 0, is the detector's own: min(-workers, GOMAXPROCS)
// shards on sw, an auto-sized tile group on hw, and unsharded -panel
// targets; the config line prints the resolved count (auto on hw and
// gpu), and -shards 1 forces unsharded. Sharded verdicts are
// bit-identical to unsharded ones.
//
// -stream replays each read through an incremental Session in -chunk
// sample deliveries, as a live Read Until loop would — decisions land the
// moment the stage boundary crosses, and the verdicts are bit-identical
// to the batch path. Sessions run on any back-end's instance pool
// (engine sessions park the DP row between stage extensions), so -stream
// composes with -backend hw and gpu too.
//
// -rt runs the deadline side of the paper's claim: a -channels-pore flow
// cell delivers ~0.1 s chunks on a virtual clock, every stage decision
// becomes a deadlined task priced by the selected back-end's service-time
// model, and the report is the measured keep-up verdict — utilization,
// p50/p99 decision latency, late-decision fraction, and sequencing wasted
// on late ejections.
//
// -panel takes comma-separated reference files and classifies every read
// against all of them at once, printing a per-target summary table. A
// read is positive when any target accepts it; the accepted target with
// the exact lowest per-sample cost wins the attribution. With -stream,
// reads replay through PanelSessions; -prune-margin >= 0 additionally
// enables cross-target pruning (undecided targets trailing the accepted
// leader by more than M cost units per sample stop consuming DP work;
// negative M, the default, disables pruning and keeps streamed verdicts
// bit-identical to the one-shot path).
//
// -cascade puts the two-tier filtering cascade in front of the panel:
// each read's prefix is scored decimated against every target's decimated
// reference and only the top-k survivors (per read-rate hypothesis) run
// the exact panel. -topk and -decimate override the cascade defaults
// (0 keeps them); the report adds survivors/read and the coarse tier's
// DP cost. -topk at or above the panel size degenerates to the plain
// panel, bit-identically.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"squigglefilter"
	"squigglefilter/internal/engine"
	"squigglefilter/internal/engine/sched"
	"squigglefilter/internal/genome"
	"squigglefilter/internal/gpu"
	"squigglefilter/internal/hw"
	"squigglefilter/internal/metrics"
	"squigglefilter/internal/minion"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/readuntil"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/sigio"
	"squigglefilter/internal/squiggle"
)

// summary tallies Read Until decisions.
type summary struct {
	accept, reject, cont int
}

func (s *summary) add(d squigglefilter.Decision) {
	switch d {
	case squigglefilter.Accept:
		s.accept++
	case squigglefilter.Reject:
		s.reject++
	default:
		s.cont++
	}
}

func (s summary) String() string {
	return fmt.Sprintf("decisions: %d accept, %d reject, %d continue", s.accept, s.reject, s.cont)
}

// printSchedStats renders the scheduler's accounting — utilization and
// decision-latency percentiles — after a run that dispatched through it.
func printSchedStats(instances int, completed, late int64, util float64, p50, p90, p99 time.Duration) {
	fmt.Printf("scheduler: %d instances, %.1f%% utilized, %d tasks (%d late), decision latency p50=%v p90=%v p99=%v\n",
		instances, 100*util, completed, late,
		p50.Round(time.Microsecond), p90.Round(time.Microsecond), p99.Round(time.Microsecond))
}

// printEngineSchedStats is printSchedStats from the engine's own snapshot.
func printEngineSchedStats(st sched.Stats) {
	d := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	printSchedStats(st.Instances, st.Completed, st.Late, st.Utilization(),
		d(st.Latency.Median), d(st.Latency.P90), d(st.Latency.P99))
}

// buildPipeline programs an engine pipeline for the chosen back-end over
// the reference, mirroring the detector's construction: the stream and
// real-time paths drive engine sessions and cost models directly.
func buildPipeline(seq string, backend string, workers, shards, prefix int, threshold int32) (*engine.Pipeline, int) {
	g, err := genome.FromString(seq)
	if err != nil {
		log.Fatal(err)
	}
	ref := pore.DefaultModel().BuildReference(&genome.Genome{Name: "target", Seq: g})
	icfg := sdtw.DefaultIntConfig()
	stages := []sdtw.Stage{{PrefixSamples: prefix, Threshold: threshold}}
	var factory func() (*engine.Backend, error)
	instances, servers := workers, workers
	switch backend {
	case "sw":
		factory = func() (*engine.Backend, error) { return engine.NewSoftware(ref.Int8, icfg) }
	case "hw":
		// One pipeline instance per independent tile; the device has
		// hw.NumTiles of them.
		factory = func() (*engine.Backend, error) { return engine.NewHardwareTiles(ref.Int8, icfg, 0) }
		instances, servers = hw.NumTiles, hw.NumTiles
	case "gpu":
		// A single GPU serves every channel serially.
		factory = func() (*engine.Backend, error) { return engine.NewGPU(ref.Int8, icfg, gpu.TitanXP()) }
		instances, servers = 1, 1
	default:
		log.Fatalf("unknown backend %q (want sw, hw, or gpu)", backend)
	}
	pipe, err := engine.NewPipeline(factory, instances, stages)
	if err != nil {
		log.Fatal(err)
	}
	if shards > 1 && backend == "sw" {
		if err := pipe.SetShards(shards); err != nil {
			log.Fatal(err)
		}
	}
	return pipe, servers
}

func main() {
	dataPath := flag.String("data", "", "SQGL dataset (from cmd/datagen)")
	refPath := flag.String("ref", "", "reference sequence file (ACGT text)")
	panelRefs := flag.String("panel", "", "comma-separated reference files for multi-target panel mode")
	threshold := flag.Int("threshold", 0, "ejection threshold (0 = calibrate on ground truth; panel mode defaults to 3/sample)")
	prefix := flag.Int("prefix", 2000, "prefix samples per decision")
	backend := flag.String("backend", "sw", "classification backend: sw, hw, or gpu")
	workers := flag.Int("workers", runtime.NumCPU(), "worker pool size batch reads (and each read's shards) are scheduled across, for any backend")
	shards := flag.Int("shards", 0, "reference shards per read: intra-read parallelism on sw, cooperating tiles on hw (0 = the detector's default, 1 = unsharded)")
	stream := flag.Bool("stream", false, "replay reads through incremental sessions on the selected backend's instance pool")
	chunk := flag.Int("chunk", 400, "streaming chunk size in samples (~0.1 s of signal)")
	pruneMargin := flag.Int("prune-margin", -1, "panel stream cross-target prune margin in cost units/sample (< 0 disables)")
	cascade := flag.Bool("cascade", false, "filter the panel through the coarse cascade tier before exact classification")
	topk := flag.Int("topk", 0, "cascade survivors per read-rate hypothesis (0 = default)")
	decimate := flag.Int("decimate", 0, "cascade coarse-tier decimation factor (0 = default)")
	rt := flag.Bool("rt", false, "run the real-time flow-cell simulation (virtual clock, deadline-aware scheduler) instead of batch classification")
	channels := flag.Int("channels", 512, "flow-cell channel count for -rt")
	rtSec := flag.Float64("rt-sec", 60, "simulated seconds for -rt")
	flag.Parse()
	if *dataPath == "" || (*refPath == "" && *panelRefs == "") {
		flag.Usage()
		os.Exit(2)
	}
	if *stream && *chunk <= 0 {
		log.Fatalf("-chunk must be positive, got %d", *chunk)
	}
	if *pruneMargin >= 0 && (*panelRefs == "" || !*stream) {
		log.Fatalf("-prune-margin needs -panel with -stream (pruning acts at streaming stage boundaries)")
	}
	if *rt && *panelRefs != "" {
		log.Fatalf("-rt runs single-target flow cells; use -ref")
	}
	if *cascade && *panelRefs == "" {
		log.Fatalf("-cascade filters a multi-target panel; it needs -panel")
	}
	if (*topk != 0 || *decimate != 0) && !*cascade {
		log.Fatalf("-topk and -decimate configure the cascade; add -cascade")
	}

	f, err := os.Open(*dataPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	reads, err := sigio.Read(f)
	if err != nil {
		log.Fatal(err)
	}
	if len(reads) == 0 {
		log.Fatalf("dataset %s contains no reads", *dataPath)
	}

	if *shards < 0 {
		log.Fatalf("-shards must be at least 0, got %d", *shards)
	}

	if *panelRefs != "" {
		runPanel(reads, *panelRefs, *prefix, int32(*threshold), *stream, *chunk, *pruneMargin, *shards,
			*cascade, *topk, *decimate)
		return
	}

	refText, err := os.ReadFile(*refPath)
	if err != nil {
		log.Fatal(err)
	}
	seq := strings.TrimSpace(string(refText))

	det, err := squigglefilter.NewDetector(squigglefilter.DetectorConfig{
		Name:     "target",
		Sequence: seq,
		Workers:  *workers,
		Shards:   *shards,
	})
	if err != nil {
		log.Fatal(err)
	}

	th := int32(*threshold)
	if th == 0 {
		var targets, hosts [][]int16
		for _, r := range reads {
			if r.Target {
				targets = append(targets, r.Samples)
			} else {
				hosts = append(hosts, r.Samples)
			}
		}
		var tpr, fpr float64
		th, tpr, fpr = det.CalibrateThreshold(targets, hosts, *prefix)
		fmt.Printf("calibrated threshold %d (TPR %.3f, FPR %.3f)\n", th, tpr, fpr)
	}

	if *rt {
		runRealtime(reads, seq, *backend, *workers, *prefix, th, *channels, *chunk, *rtSec)
		return
	}

	det2, err := squigglefilter.NewDetector(squigglefilter.DetectorConfig{
		Name:     "target",
		Sequence: seq,
		Stages:   []squigglefilter.Stage{{PrefixSamples: *prefix, Threshold: th}},
		Workers:  *workers,
		Shards:   *shards,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The resolved configuration, so runs are reproducible from their logs.
	// sweep names the int32 row sweep the process dispatched to (AVX2
	// strip or scalar), so a timing can be tied to the path behind it.
	// The default shard count is the software pipeline's; hw sizes its
	// tile group to the reference then, and gpu never shards.
	shardsLabel := fmt.Sprint(det2.Shards())
	if *backend != "sw" && *shards == 0 {
		shardsLabel = "auto"
	}
	fmt.Printf("config: backend=%s sweep=%s workers=%d shards=%s (reference %d samples)\n",
		*backend, sdtw.Sweep(), det2.Workers(), shardsLabel, det2.ReferenceSamples())

	samples := make([][]int16, len(reads))
	for i, r := range reads {
		samples[i] = r.Samples
	}

	// Everything above (dataset load, detector programming, calibration)
	// is excluded from the throughput clock: the timed region is classify
	// work only.
	var cm metrics.Confusion
	var sum summary
	var consumed int64
	poolSize := 1 // hw and gpu classify serially; only sw schedules the batch
	mode := *backend
	var streamPipe *engine.Pipeline
	if *stream {
		// Built (and, for sw, service-time-calibrated) before the clock
		// starts: the timed region below is classify work only.
		streamPipe, _ = buildPipeline(seq, *backend, *workers, det2.Shards(), *prefix, th)
		streamPipe.ServiceTime(*chunk)
	}
	start := time.Now()
	switch {
	case *stream:
		// Reads replay serially through sessions (one live channel), so
		// the throughput figure is a 1-worker number regardless of the
		// pool size. Sessions run on the selected back-end's own pool.
		mode = *backend + "/stream"
		for i, s := range samples {
			v, _ := streamPipe.NewSession().Stream(s, *chunk)
			cm.Add(reads[i].Target, v.Decision == sdtw.Accept)
			sum.add(squigglefilter.Decision(v.Decision))
			consumed += int64(v.SamplesUsed)
		}
	case *backend == "sw":
		poolSize = det2.Workers()
		verdicts := det2.ClassifyBatch(samples)
		for i, v := range verdicts {
			cm.Add(reads[i].Target, v.Decision == squigglefilter.Accept)
			sum.add(v.Decision)
			consumed += int64(v.SamplesUsed)
		}
	case *backend == "hw":
		var cycles, dram int64
		var latency time.Duration
		for i, s := range samples {
			v := det2.ClassifyHW(s)
			cm.Add(reads[i].Target, v.Decision == squigglefilter.Accept)
			sum.add(v.Decision)
			consumed += int64(v.SamplesUsed)
			cycles += v.Cycles
			dram += v.DRAMBytes
			latency += v.Latency
		}
		fmt.Printf("hardware model: %d cycles, %d DRAM bytes, mean latency %v/read\n",
			cycles, dram, latency/time.Duration(len(samples)))
	case *backend == "gpu":
		var latency time.Duration
		for i, s := range samples {
			v := det2.ClassifyGPU(s)
			cm.Add(reads[i].Target, v.Decision == squigglefilter.Accept)
			sum.add(v.Decision)
			consumed += int64(v.SamplesUsed)
			latency += v.KernelLatency
		}
		fmt.Printf("gpu model: mean kernel latency %v/read\n", latency/time.Duration(len(samples)))
	default:
		log.Fatalf("unknown backend %q (want sw, hw, or gpu)", *backend)
	}
	elapsed := time.Since(start)

	fmt.Printf("classified %d reads at prefix %d on %s backend: %s\n", len(reads), *prefix, mode, cm)
	fmt.Printf("%s (mean decision at %.0f bases)\n", sum, float64(consumed)/float64(len(reads))/readuntil.SamplesPerBase)
	switch {
	case streamPipe != nil:
		printEngineSchedStats(streamPipe.SchedStats())
	case *backend == "sw":
		if st := det2.SchedStats(); st.Completed > 0 {
			printSchedStats(st.Instances, st.Completed, st.Late, st.Utilization,
				st.LatencyP50, st.LatencyP90, st.LatencyP99)
		}
	}
	fmt.Printf("classify-only: %v (%.0f samples/sec, %d workers)\n",
		elapsed.Round(time.Millisecond), float64(consumed)/elapsed.Seconds(), poolSize)
}

// runRealtime simulates a -channels-pore flow cell on a virtual clock:
// verdicts come from real DP on the selected back-end, task timing from
// its service-time cost model queued through the deterministic EDF
// scheduler, and the report is the measured keep-up verdict.
func runRealtime(reads []*squiggle.Read, seq, backend string, workers, prefix int, threshold int32, channels, chunk int, rtSec float64) {
	pipe, servers := buildPipeline(seq, backend, workers, 1, prefix, threshold)
	cfg := minion.FlowCellConfig{
		Config:       minion.DefaultConfig(),
		ChunkSamples: chunk,
		Servers:      servers,
		DurationSec:  rtSec,
		Seed:         1,
	}
	cfg.Channels = channels
	cfg.BlockRatePerHour = 0
	res, err := minion.RunFlowCell(pipe, cfg, minion.ReadPoolSource(reads))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("realtime: backend=%s sweep=%s servers=%d prefix=%d threshold=%d chunk=%d (%.3fs period), %gs simulated\n",
		backend, sdtw.Sweep(), servers, prefix, threshold, chunk, res.ChunkPeriodSec, rtSec)
	fmt.Println(res)
	fmt.Printf("yield: %d target / %d total bases, %d full reads, %d ejected; wait p99=%.3gs\n",
		res.TargetBases, res.TotalBases, res.ReadsFull, res.ReadsEjected, res.Wait.P99)
}

// runPanel classifies the dataset against several references at once,
// one-shot (ClassifyBatch) or streamed through PanelSessions with
// optional cross-target pruning, and prints a per-target summary table.
// With cascade set, reads run through the two-tier CascadePanel instead:
// the coarse tier picks survivors per read and only they do exact DP.
func runPanel(reads []*squiggle.Read, panelRefs string, prefix int, threshold int32, stream bool, chunk, pruneMargin, shards int, cascade bool, topk, decimate int) {
	if threshold == 0 {
		threshold = int32(prefix) * squigglefilter.DefaultThresholdPerSample
	}
	var cfgs []squigglefilter.DetectorConfig
	for _, path := range strings.Split(panelRefs, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		text, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		cfgs = append(cfgs, squigglefilter.DetectorConfig{
			Name:     name,
			Sequence: strings.TrimSpace(string(text)),
			Stages:   []squigglefilter.Stage{{PrefixSamples: prefix, Threshold: threshold}},
			Shards:   shards,
		})
	}
	// A panel's targets default to unsharded.
	shards = max(shards, 1)
	var panel *squigglefilter.Panel
	var cp *squigglefilter.CascadePanel
	if cascade {
		var err error
		cp, err = squigglefilter.NewCascadePanel(cfgs, squigglefilter.CascadeConfig{Decimation: decimate, TopK: topk})
		if err != nil {
			log.Fatal(err)
		}
		panel = cp.Panel()
		cc := cp.Config()
		fmt.Printf("config: backend=sw sweep=%s coarse=%s targets=%d shards=%d cascade decimate=%d topk=%d coarse-prefix=%d\n",
			sdtw.Sweep(), sdtw.CoarseSweep(), len(panel.Targets()), shards, cc.Decimation, cc.TopK, cc.CoarsePrefix)
	} else {
		var err error
		panel, err = squigglefilter.NewPanel(cfgs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("config: backend=sw sweep=%s targets=%d shards=%d\n", sdtw.Sweep(), len(panel.Targets()), shards)
	}
	names := panel.Targets()
	prune := squigglefilter.PrunePolicy{Enabled: pruneMargin >= 0, MarginPerSample: pruneMargin}

	samples := make([][]int16, len(reads))
	for i, r := range reads {
		samples[i] = r.Samples
	}

	var cm metrics.Confusion
	attributed := make([]int64, len(names))
	rejects := make([]int64, len(names))
	pruned := make([]int64, len(names))
	dpSamples := make([]int64, len(names))
	var rejected, undecided int64
	mode := "panel/batch"
	tally := func(i int, v squigglefilter.PanelVerdict) {
		cm.Add(reads[i].Target, v.Best >= 0)
		switch {
		case v.Best >= 0:
			attributed[v.Best]++
		case v.Undecided:
			undecided++
		default:
			rejected++
		}
		for ti, tv := range v.Verdicts {
			dpSamples[ti] += int64(tv.SamplesUsed)
			if tv.Decision == squigglefilter.Reject {
				rejects[ti]++
			}
		}
	}
	var coarseDP, survivors int64
	start := time.Now()
	switch {
	case cascade:
		// Cascade classification is inherently sessionful (the coarse tier
		// buffers the prefix); without -stream the whole read feeds at once.
		mode = "panel/cascade"
		ck := 0
		if stream {
			mode = "panel/cascade-stream"
			ck = chunk
		}
		for i, s := range samples {
			sess, err := cp.NewSession(prune)
			if err != nil {
				log.Fatal(err)
			}
			v, _ := sess.Stream(s, ck)
			tally(i, v)
			coarseDP += sess.CoarseDPSamples()
			survivors += int64(len(sess.Survivors()))
		}
	case stream:
		mode = "panel/stream"
		for i, s := range samples {
			sess, err := panel.NewSession(prune)
			if err != nil {
				log.Fatal(err)
			}
			v, _ := sess.Stream(s, chunk)
			tally(i, v)
			for ti, p := range sess.Pruned() {
				if p {
					pruned[ti]++
				}
			}
		}
	default:
		for i, v := range panel.ClassifyBatch(samples) {
			tally(i, v)
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("panel of %d targets at prefix %d (threshold %d) on %s: %s\n",
		len(names), prefix, threshold, mode, cm)
	fmt.Printf("%-16s %10s %10s %10s %12s\n", "target", "attributed", "rejects", "pruned", "DP samples")
	var totalDP int64
	for ti, name := range names {
		fmt.Printf("%-16s %10d %10d %10d %12d\n", name, attributed[ti], rejects[ti], pruned[ti], dpSamples[ti])
		totalDP += dpSamples[ti]
	}
	fmt.Printf("%d reads: %d attributed, %d all-reject, %d undecided\n",
		len(reads), len(reads)-int(rejected)-int(undecided), rejected, undecided)
	if cascade {
		fmt.Printf("cascade: %.1f survivors/read of %d targets, %.0f coarse DP samples/read (decimated), %.1f exact DP samples/read\n",
			float64(survivors)/float64(len(reads)), len(names),
			float64(coarseDP)/float64(len(reads)), float64(totalDP)/float64(len(reads)))
	}
	if prune.Enabled {
		fmt.Printf("pruning margin %d/sample: %.1f DP samples/read across the panel\n",
			prune.MarginPerSample, float64(totalDP)/float64(len(reads)))
	}
	fmt.Printf("classify-only: %v (%.0f DP samples/sec)\n",
		elapsed.Round(time.Millisecond), float64(totalDP)/elapsed.Seconds())
}
