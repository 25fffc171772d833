// Package squigglefilter is a from-scratch reproduction of SquiggleFilter
// (Dunn, Sadasivan, et al., MICRO 2021): a hardware-accelerated
// subsequence-DTW filter that classifies raw nanopore signal ("squiggles")
// against a target virus's reference genome so that non-target reads can
// be ejected with the MinION's Read Until feature — without ever running
// a basecaller.
//
// This package is the public API. A Detector is programmed once with a
// reference genome and then classifies raw read prefixes:
//
//	det, err := squigglefilter.NewDetector(squigglefilter.DetectorConfig{
//		Name:     "SARS-CoV-2",
//		Sequence: refSeq, // ACGT string
//	})
//	verdict := det.Classify(rawSamples) // 10-bit ADC samples
//	if verdict.Decision == squigglefilter.Reject {
//		// tell the sequencer to eject the read
//	}
//
// Classification is served by interchangeable back-ends behind one
// interface (internal/engine): the software sDTW filter (Classify,
// ClassifyBatch), the cycle-accurate accelerator model (ClassifyHW), and
// the calibrated GPU baseline (ClassifyGPU). All three share a single
// normalization and staging policy, so their costs and decisions are
// bit-identical; they differ only in performance accounting. ClassifyBatch
// shards reads across a worker pool the way the device shards reads across
// tiles, and a Panel classifies one read against several reference genomes
// at once.
//
// For live Read Until, NewSession classifies incrementally: feed raw
// signal chunk by chunk as the sequencer delivers it and the verdict is
// emitted the moment a stage boundary decides, bit-identical to one-shot
// Classify on the same signal:
//
//	sess := det.NewSession()
//	for chunk := range channelDeliveries {
//		if v, done := sess.Feed(chunk); done {
//			// v.Decision arrived mid-read; eject or keep sequencing
//			break
//		}
//	}
//	v := sess.Finalize() // read ended before a boundary decided
//
// The heavy lifting lives in internal packages: the integer sDTW engine
// (internal/sdtw), the back-end interface and concurrent pipeline
// (internal/engine), the cycle-accurate accelerator model (internal/hw),
// the pore model and reference-squiggle construction (internal/pore), and
// the Read Until runtime model (internal/readuntil). See DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper reproduction.
package squigglefilter

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"squigglefilter/internal/engine"
	"squigglefilter/internal/genome"
	"squigglefilter/internal/gpu"
	"squigglefilter/internal/hw"
	"squigglefilter/internal/metrics"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/sdtw"
)

// Decision is a Read Until verdict.
type Decision int

// Verdict decisions.
const (
	// Continue: not enough signal yet; keep sequencing and ask again.
	Continue Decision = iota
	// Accept: the read matches the target; sequence it to completion.
	Accept
	// Reject: eject the read from the pore.
	Reject
)

// String names the decision.
func (d Decision) String() string { return sdtw.Decision(d).String() }

// Stage is one threshold point of the (optionally multi-stage) filter:
// after PrefixSamples raw samples, reads with alignment cost above
// Threshold are ejected; at the last stage, reads at or below it are
// accepted.
type Stage struct {
	PrefixSamples int
	Threshold     int32
}

// DetectorConfig programs a Detector.
type DetectorConfig struct {
	// Name labels the target (reports only).
	Name string
	// Sequence is the target reference genome as an ACGT string.
	// Genomes up to 50 kb (double-stranded equivalent) fit one tile's
	// 100 KB reference buffer, which covers almost every epidemic virus
	// (paper Figure 10); longer genomes — up to hw.NumTiles x that — are
	// sharded across cooperating tiles automatically (the multi-tile
	// group exchanges halo cells through DRAM, so they cost memory
	// traffic, not latency).
	Sequence string
	// Stages is the filter schedule. Empty means a single stage at the
	// paper's default 2,000-sample prefix with a threshold calibrated as
	// DefaultThresholdPerSample per prefix sample.
	Stages []Stage
	// MatchBonus / BonusCap tune the translocation-rate compensation
	// (paper Section 4.7). Zero values select the paper defaults; set
	// MatchBonus to a negative value to disable the bonus.
	MatchBonus int32
	BonusCap   int32
	// Workers sizes the software worker pool: the back-end instances that
	// Classify, ClassifyBatch and Sessions schedule their DP work over,
	// and with the default Shards the number of shards a Detector spreads
	// one read across. Zero means runtime.NumCPU().
	Workers int
	// Shards splits the reference dimension of every software
	// classification into this many shards, which the caller and the
	// process's shard helpers run as a wavefront over the Workers pool:
	// per-read latency drops with the shard count, not just batch
	// throughput. Zero means min(Workers, GOMAXPROCS) for a Detector, so
	// a default detector spreads one read across every core, and a
	// Workers: 1 detector stays unsharded; Panel and CascadePanel targets,
	// which already run side by side, resolve zero to unsharded. 1 or
	// less forces unsharded. Explicit
	// values above 1 also make ClassifyHW gang up to hw.NumTiles tiles
	// cooperatively; the zero default leaves the hardware model's tile
	// group auto-sized to the reference. Sharded verdicts are
	// bit-identical to unsharded ones by construction; the GPU baseline
	// models whole-kernel launches and ignores Shards.
	Shards int
	// Kernel must be KernelInt32 (the zero value); NewDetector rejects
	// any other value.
	//
	// Deprecated: the software classifier has one DP cell layout, the
	// int32 row with its AVX2 sweep. The field is kept only so existing
	// callers compile.
	Kernel Kernel
	// Realtime, when set (ClockHz > 0), puts the detector's scheduler in
	// deadline mode: every DP task carries a decision deadline of one
	// chunk-delivery period, the earliest-deadline task runs first, and
	// SchedStats counts deadline misses — the provisioning question
	// ("does this back-end keep up with the sequencer?") becomes a
	// measured output. The zero value keeps best-effort scheduling.
	Realtime RealtimeConfig
}

// RealtimeConfig provisions the detector for live Read Until service.
type RealtimeConfig struct {
	// Channels records the number of concurrently delivering sequencer
	// channels the detector is provisioned for (512 on a MinION). It is
	// a provisioning label surfaced by Detector.Realtime() for reports
	// and tooling defaults; scheduling itself is governed by ClockHz
	// (and verdicts are never affected).
	Channels int
	// ClockHz is the per-channel raw sample rate (~4,000 on a MinION).
	// With the standard ~400-sample delivery granularity it sets the
	// decision deadline window: a chunk's DP should finish before the
	// next chunk lands, i.e. within 400/ClockHz seconds. NewDetector
	// rejects a NaN or infinite ClockHz, and a positive one whose window
	// is not between 1 ns and the largest time.Duration.
	ClockHz float64
}

// realtimeChunkSamples is the per-delivery granularity the deadline
// window assumes: ~0.1 s of signal at the MinION's ~4 kHz channel clock,
// matching the Read Until API's delivery cadence.
const realtimeChunkSamples = 400

// window converts the config to the scheduler's deadline window
// (0 = best-effort, for any finite ClockHz <= 0). A ClockHz that is NaN
// or infinite, or positive but so small or so large that the window is
// not a positive time.Duration, is an error: converting it would yield a
// zero or out-of-range window that the scheduler treats as best-effort.
func (rc RealtimeConfig) window() (time.Duration, error) {
	if math.IsNaN(rc.ClockHz) || math.IsInf(rc.ClockHz, 0) {
		return 0, fmt.Errorf("realtime ClockHz %v is not finite", rc.ClockHz)
	}
	if rc.ClockHz <= 0 {
		return 0, nil
	}
	ns := realtimeChunkSamples / rc.ClockHz * float64(time.Second)
	if !(ns >= 1 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("realtime ClockHz %v gives a %d-sample deadline window of %g ns, outside [1ns, %v]", rc.ClockHz, realtimeChunkSamples, ns, time.Duration(math.MaxInt64))
	}
	return time.Duration(ns), nil
}

// DefaultThresholdPerSample is a robust default ejection threshold in
// fixed-point cost units per prefix sample; the paper found a static
// threshold "relatively robust across species and sequencing runs".
const DefaultThresholdPerSample = 3

// Kernel names a software DP cell layout.
//
// Deprecated: the software classifier has one layout, KernelInt32.
type Kernel int

const (
	// KernelInt32 is the software classifier's layout: 32-bit costs and
	// run counters.
	//
	// Deprecated: it is the only layout; leave DetectorConfig.Kernel zero.
	KernelInt32 Kernel = iota
	// KernelInt16 named a packed saturating 16-bit exact kernel that has
	// been removed; NewDetector rejects it.
	//
	// Deprecated: use the default KernelInt32.
	KernelInt16
)

// String names the kernel as tools report it.
//
// Deprecated: see Kernel.
func (k Kernel) String() string {
	if k == KernelInt32 {
		return "int32"
	}
	return fmt.Sprintf("Kernel(%d)", int(k))
}

// Detector classifies raw nanopore read prefixes against one target
// genome. It is safe for concurrent use.
type Detector struct {
	name     string
	ref      *pore.Reference
	filter   *sdtw.Filter
	cfg      sdtw.IntConfig
	stages   []sdtw.Stage
	realtime RealtimeConfig

	gpu    *engine.Backend  // calibrated GPU baseline (concurrency-safe)
	swPipe *engine.Pipeline // software instances every software read runs on
	hwPipe *engine.Pipeline // hardware tiles; pipeline serializes access
}

// NewDetector builds and programs a detector.
func NewDetector(cfg DetectorConfig) (*Detector, error) {
	if cfg.Kernel != KernelInt32 {
		return nil, fmt.Errorf("squigglefilter: kernel %v is not supported; the only kernel is int32", cfg.Kernel)
	}
	rtWindow, err := cfg.Realtime.window()
	if err != nil {
		return nil, fmt.Errorf("squigglefilter: %w", err)
	}
	seq, err := genome.FromString(cfg.Sequence)
	if err != nil {
		return nil, fmt.Errorf("squigglefilter: %w", err)
	}
	if len(seq) < 100 {
		return nil, fmt.Errorf("squigglefilter: reference of %d bases is too short to filter against", len(seq))
	}
	g := &genome.Genome{Name: cfg.Name, Seq: seq}
	ref := pore.DefaultModel().BuildReference(g)

	icfg := sdtw.DefaultIntConfig()
	switch {
	case cfg.MatchBonus < 0:
		icfg = sdtw.IntConfig{}
	case cfg.MatchBonus > 0:
		icfg.MatchBonus = cfg.MatchBonus
	}
	if cfg.BonusCap > 0 {
		icfg.BonusCap = cfg.BonusCap
	}

	stages := cfg.Stages
	if len(stages) == 0 {
		stages = []Stage{{PrefixSamples: 2000, Threshold: 2000 * DefaultThresholdPerSample}}
	}
	internalStages := make([]sdtw.Stage, len(stages))
	for i, s := range stages {
		internalStages[i] = sdtw.Stage{PrefixSamples: s.PrefixSamples, Threshold: s.Threshold}
	}
	filter, err := sdtw.NewFilter(ref.Int8, icfg, internalStages)
	if err != nil {
		return nil, fmt.Errorf("squigglefilter: %w", err)
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// The software default follows the cores; the hardware model's tile
	// group follows only an explicit Shards.
	shards := cfg.Shards
	if shards == 0 {
		shards = min(workers, runtime.GOMAXPROCS(0))
	}
	gpuBackend, err := engine.NewGPU(ref.Int8, icfg, gpu.TitanXP())
	if err != nil {
		return nil, fmt.Errorf("squigglefilter: %w", err)
	}
	swPipe, err := engine.NewPipeline(func() (*engine.Backend, error) {
		return engine.NewSoftware(ref.Int8, icfg)
	}, workers, internalStages)
	if err != nil {
		return nil, fmt.Errorf("squigglefilter: %w", err)
	}
	if err := swPipe.SetShards(shards); err != nil {
		return nil, fmt.Errorf("squigglefilter: %w", err)
	}
	// One device per detector, exactly as the single-target device maps
	// one read to one tile — or, for references beyond one tile's buffer
	// and for an explicit Shards > 1, to a cooperating tile group. The
	// pipeline grants exclusive access, keeping ClassifyHW safe for
	// concurrent use.
	hwTiles := 0 // auto-size to the reference
	if cfg.Shards > 1 {
		hwTiles = min(cfg.Shards, hw.NumTiles)
		if need := (ref.Len() + hw.RefBufferBytes - 1) / hw.RefBufferBytes; hwTiles < need {
			hwTiles = 0 // fall back to auto when the reference needs more
		}
	}
	hwPipe, err := engine.NewPipeline(func() (*engine.Backend, error) {
		return engine.NewHardwareTiles(ref.Int8, icfg, hwTiles)
	}, 1, internalStages)
	if err != nil {
		return nil, fmt.Errorf("squigglefilter: %w", err)
	}
	if rtWindow > 0 {
		swPipe.SetRealtime(rtWindow)
		hwPipe.SetRealtime(rtWindow)
	}
	return &Detector{
		name:     cfg.Name,
		ref:      ref,
		filter:   filter,
		cfg:      icfg,
		stages:   internalStages,
		realtime: cfg.Realtime,
		gpu:      gpuBackend,
		swPipe:   swPipe,
		hwPipe:   hwPipe,
	}, nil
}

// Name returns the programmed target's name.
func (d *Detector) Name() string { return d.name }

// ReferenceSamples returns the reference squiggle length (both strands) —
// the R in the paper's ~2R-cycle classification latency.
func (d *Detector) ReferenceSamples() int { return d.ref.Len() }

// Workers returns the size of the software worker pool.
func (d *Detector) Workers() int { return d.swPipe.Workers() }

// Shards returns the resolved reference shard count of the software
// classification paths (1 when unsharded).
func (d *Detector) Shards() int { return d.swPipe.Shards() }

// Kernel returns KernelInt32, the only software DP cell layout.
//
// Deprecated: see Kernel.
func (d *Detector) Kernel() Kernel { return KernelInt32 }

// Realtime returns the configured real-time provisioning (zero when the
// detector schedules best-effort).
func (d *Detector) Realtime() RealtimeConfig { return d.realtime }

// SchedStats summarizes the detector's software scheduler. Every software
// read — Classify, ClassifyBatch and live Sessions alike — runs as a
// session whose stage extensions (sharded: (shard, block) tasks) dispatch
// through one earliest-deadline-first queue, and this is its accounting —
// the measured side of the paper's "keeps up with the sequencer" claim.
type SchedStats struct {
	// Instances is the back-end pool size tasks are scheduled over.
	Instances int
	// Completed counts finished DP tasks (one per evaluated stage of an
	// unsharded read); Late those that finished after
	// their real-time deadline (always 0 without DetectorConfig.Realtime).
	Completed, Late int64
	// Utilization is the fraction of pool capacity spent running DP.
	Utilization float64
	// LatencyP50/P90/P99 are submit-to-finish decision latency
	// percentiles over recent tasks (queueing included).
	LatencyP50, LatencyP90, LatencyP99 time.Duration
}

// SchedStats snapshots the software pipeline's scheduler accounting.
func (d *Detector) SchedStats() SchedStats {
	st := d.swPipe.SchedStats()
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return SchedStats{
		Instances:   st.Instances,
		Completed:   st.Completed,
		Late:        st.Late,
		Utilization: st.Utilization(),
		LatencyP50:  secs(st.Latency.Median),
		LatencyP90:  secs(st.Latency.P90),
		LatencyP99:  secs(st.Latency.P99),
	}
}

// Verdict is the outcome of classifying one read prefix.
type Verdict struct {
	Decision Decision
	// Cost is the sDTW alignment cost at the deciding stage (lower is
	// more target-like; the match bonus can make true matches negative).
	Cost int32
	// SamplesUsed is how many raw samples were consumed before the
	// decision — what Read Until turns into saved sequencing time.
	SamplesUsed int
}

func verdictFrom(r engine.Result) Verdict {
	return Verdict{Decision: Decision(r.Decision), Cost: r.Cost, SamplesUsed: r.SamplesUsed}
}

// Classify runs the software filter over a read's raw 10-bit samples: a
// Session fed the whole read once, its stage extensions dispatched
// through the detector's scheduler over Workers instances (with
// Shards > 1, as a wavefront across them).
func (d *Detector) Classify(samples []int16) Verdict {
	return verdictFrom(d.swPipe.Classify(samples))
}

// Session is an incremental classification of one read: raw signal
// arrives in arbitrary chunk sizes as the sequencer delivers it, and the
// verdict is emitted the moment a stage boundary decides — the live Read
// Until loop, without waiting for the full prefix to be buffered by the
// caller. Streamed verdicts are bit-identical to one-shot Classify on the
// same signal.
//
// Use one Session per read, from one goroutine; any number of concurrent
// sessions may be open at once (their DP work multiplexes over the
// detector's worker pool).
type Session struct {
	s *engine.Session
}

// NewSession starts an incremental classification of one read.
func (d *Detector) NewSession() *Session {
	return &Session{s: d.swPipe.NewSession()}
}

// Feed appends a chunk of raw samples and returns the verdict so far plus
// whether the read is decided (Accept or Reject). Once decided, further
// chunks are ignored.
func (s *Session) Feed(chunk []int16) (Verdict, bool) {
	r, done := s.s.Feed(chunk)
	return verdictFrom(r), done
}

// Finalize signals that the read ended: any signal short of the next
// stage boundary is decided as the final stage, exactly as Classify
// decides a short read. Finalize is idempotent.
func (s *Session) Finalize() Verdict {
	return verdictFrom(s.s.Finalize())
}

// Stream feeds a whole read in chunkSamples-sized deliveries (<= 0
// feeds it at once), stopping at the first decision, then finalizes.
// The returned bool reports whether a stage decided before the signal
// ended — the only case Read Until can still eject the read.
func (s *Session) Stream(samples []int16, chunkSamples int) (Verdict, bool) {
	r, decided := s.s.Stream(samples, chunkSamples)
	return verdictFrom(r), decided
}

// Decided reports whether the session has reached an Accept or Reject.
func (s *Session) Decided() bool { return s.s.Decided() }

// ClassifyBatch classifies a batch of reads concurrently, sharding them
// across the detector's worker pool (DetectorConfig.Workers back-end
// instances). Results are in input order and identical to calling Classify
// on each read serially.
func (d *Detector) ClassifyBatch(reads [][]int16) []Verdict {
	// The background context is never cancelled, so the error is
	// structurally nil.
	res, _ := d.swPipe.ClassifyBatch(context.Background(), reads)
	out := make([]Verdict, len(res))
	for i, r := range res {
		out[i] = verdictFrom(r)
	}
	return out
}

// Cost computes the raw alignment cost of a prefix without thresholding —
// useful for calibration and diagnostics.
func (d *Detector) Cost(samples []int16, prefixSamples int) int32 {
	return d.filter.CostAt(samples, prefixSamples).Cost
}

// HardwareVerdict additionally reports accelerator cycle statistics from
// the cycle-accurate tile model (bit-identical to Classify's costs).
type HardwareVerdict struct {
	Verdict
	Cycles    int64
	DRAMBytes int64
	Latency   time.Duration
}

// ClassifyHW classifies on the cycle-accurate systolic-array model,
// evaluating the full stage schedule exactly as Classify does (the DP row
// parks in DRAM between stages, which is what DRAMBytes accounts).
func (d *Detector) ClassifyHW(samples []int16) HardwareVerdict {
	r := d.hwPipe.Classify(samples)
	return HardwareVerdict{
		Verdict:   verdictFrom(r),
		Cycles:    r.Stats.Cycles,
		DRAMBytes: r.Stats.DRAMBytes,
		Latency:   r.Stats.Latency,
	}
}

// GPUVerdict reports the calibrated GPU baseline's modeled kernel latency
// alongside the (bit-identical) verdict.
type GPUVerdict struct {
	Verdict
	// KernelLatency is the modeled time the device's sDTW kernel takes for
	// this read under Read Until's small-batch regime (Titan XP envelope).
	KernelLatency time.Duration
}

// ClassifyGPU classifies on the GPU-baseline model (paper Table 3's
// Titan XP): same decisions and costs as Classify, with the latency a GPU
// software pipeline would pay.
func (d *Detector) ClassifyGPU(samples []int16) GPUVerdict {
	r := d.gpu.Classify(samples, d.stages)
	return GPUVerdict{Verdict: verdictFrom(r), KernelLatency: r.Stats.Latency}
}

// CalibrateThreshold sweeps thresholds over labelled raw reads and returns
// the threshold maximizing F1 at the given prefix, plus the achieved
// true/false positive rates. Use a few dozen known target and non-target
// reads from a calibration run.
func (d *Detector) CalibrateThreshold(targetReads, hostReads [][]int16, prefixSamples int) (threshold int32, tpr, fpr float64) {
	var t, h []float64
	for _, r := range targetReads {
		//lint:allow floatcost offline ROC calibration: the float copies feed metrics.BestF1 sorting; the returned threshold itself stays int32
		t = append(t, float64(d.filter.CostAt(r, prefixSamples).Cost))
	}
	for _, r := range hostReads {
		//lint:allow floatcost offline ROC calibration: the float copies feed metrics.BestF1 sorting; the returned threshold itself stays int32
		h = append(h, float64(d.filter.CostAt(r, prefixSamples).Cost))
	}
	best := metrics.BestF1(t, h)
	return int32(best.Threshold), best.TPR, best.FPR
}

// Performance summarizes the accelerator's analytical envelope for this
// detector's reference (paper Section 7.1).
type Performance struct {
	LatencyPerRead       time.Duration
	TileSamplesPerSec    float64
	DeviceSamplesPerSec  float64
	SequencerHeadroom    float64 // vs the MinION's 2.05 M samples/s
	AreaMM2, PowerW      float64
	DRAMBandwidthPerTile float64
}

// Performance reports the hardware model's numbers at the default
// 2,000-sample prefix.
func (d *Detector) Performance() Performance {
	const minionSamplesPerSec = 2.048e6
	refLen := d.ref.Len()
	return Performance{
		LatencyPerRead:       hw.Latency(2000, refLen),
		TileSamplesPerSec:    hw.TileThroughput(2000, refLen),
		DeviceSamplesPerSec:  hw.DeviceThroughput(2000, refLen, hw.NumTiles),
		SequencerHeadroom:    hw.ScalabilityHeadroom(2000, refLen, minionSamplesPerSec),
		AreaMM2:              hw.ASICAreaMM2(hw.NumTiles),
		PowerW:               hw.ASICPowerW(hw.NumTiles),
		DRAMBandwidthPerTile: hw.MultiStageDRAMBandwidth(),
	}
}
