// Virtual-time flow cell: the deadline side of the paper's hardware
// claim. Sections 6–7 argue not that sDTW is fast in isolation but that
// the accelerator sustains all 512 channels at ~4 kHz *in real time*
// while a GPU classifier falls behind and wastes sequencing on late
// ejections. RunFlowCell makes that verdict a measured output: every
// channel emits ~0.1 s chunks on a virtual clock, each stage-boundary DP
// becomes a deadlined task priced by the back-end's ServiceTime cost
// model, tasks queue through the engine scheduler's deterministic
// virtual-time twin (internal/engine/sched.Virtual), and a Reject takes
// effect only when its task *finishes* — so queueing delay shows up as
// extra sequenced samples before every ejection, and an overloaded
// back-end measurably falls behind.
package minion

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"squigglefilter/internal/engine"
	"squigglefilter/internal/engine/sched"
	"squigglefilter/internal/metrics"
	"squigglefilter/internal/sdtw"
)

// FlowCellConfig configures a virtual-time flow-cell run.
type FlowCellConfig struct {
	// Config supplies Channels, BasesPerSec, SamplesPerBase,
	// CaptureMeanSec, and EjectSec. BlockRatePerHour is ignored — pore
	// chemistry is orthogonal to the scheduling question this simulation
	// answers (minion.Simulator models it).
	Config
	// ChunkSamples is the per-delivery granularity (<= 0 selects
	// DefaultChunkSamples, ~0.1 s of signal). A chunk's DP must finish
	// before the next chunk lands — that is each task's deadline.
	ChunkSamples int
	// Servers is the number of classifier instances the virtual scheduler
	// multiplexes tasks over: worker count for sw, hw.NumTiles for the
	// ASIC, 1 for a single GPU. <= 0 selects the pipeline's pool size.
	Servers int
	// Service overrides the per-stage-chunk service-time model; nil uses
	// the pipeline's own (Pipeline.ServiceTime). Overriding lets a test
	// deliberately slow a back-end to provoke late ejections.
	Service func(chunkSamples int) time.Duration
	// DurationSec is the simulated span.
	DurationSec float64
	// Seed drives the capture/read draws; identical seeds reproduce the
	// run exactly.
	Seed int64
	// Coarse, when non-nil, adds a database-scale coarse tier to the
	// keep-up verdict: every read that crosses the cascade's coarse
	// prefix (or ends short of it) owes one coarse pass over the panel,
	// priced by the cascade's service-time model and queued through the
	// same deadline scheduler as the per-chunk stage tasks — so an
	// overloaded coarse tier turns decisions late and breaks Sustained().
	// Verdicts still come from the single-target pipeline: the coarse
	// tier is modeled load under the keep-up verdict, not a second
	// classifier (its survivor selection is exercised by the engine's own
	// tests; here the question is whether the machine keeps up).
	Coarse *engine.Cascade
}

// FlowCellResult reports a virtual-time run.
type FlowCellResult struct {
	Channels int
	// Decisions counts completed DP tasks; LateDecisions those that
	// finished after their one-chunk-period deadline. Backlog is the
	// number of submitted tasks the pool had not even started when the
	// run ended — the signature of a classifier that fell behind.
	Decisions, LateDecisions, Backlog int
	// Latency and Wait summarize release-to-finish decision latency and
	// queueing delay, in seconds.
	Latency, Wait metrics.Summary
	// Utilization is busy server time over pool capacity.
	Utilization float64
	// LateExtraSamples counts raw samples sequenced between a rejecting
	// stage boundary and the moment its decision actually landed, summed
	// over every ejection — sequencing wasted on decision latency, the
	// paper's "late ejection" cost.
	LateExtraSamples int64
	// Yield accounting, as in RunResult.
	TargetBases, TotalBases int64
	ReadsFull, ReadsEjected int
	DurationSec             float64
	ChunkPeriodSec          float64
	// CoarseReads counts reads that owed a coarse pass (one task each);
	// CoarsePasses counts those tasks completed. Zero when no cascade was
	// configured.
	CoarsePasses, CoarseReads int
}

// LateFraction is LateDecisions / Decisions (0 when no decisions).
func (r FlowCellResult) LateFraction() float64 {
	if r.Decisions == 0 {
		return 0
	}
	return float64(r.LateDecisions) / float64(r.Decisions)
}

// Sustained reports the keep-up verdict: the back-end served the cell's
// decisions with at most 1% of them late. The ASIC model sustains a full
// MinION this way; an overloaded GPU model saturates its queue and turns
// almost every decision late.
func (r FlowCellResult) Sustained() bool {
	return r.Decisions > 0 && r.LateFraction() <= 0.01
}

// String renders the one-line report sfrun and the examples print.
func (r FlowCellResult) String() string {
	verdict := "SUSTAINED"
	if !r.Sustained() {
		verdict = "FELL BEHIND"
	}
	return fmt.Sprintf("%d channels: %s — util %.1f%%, %d decisions (%.1f%% late, backlog %d), latency p50=%.3gs p99=%.3gs, late-ejection waste %d samples",
		r.Channels, verdict, 100*r.Utilization, r.Decisions, 100*r.LateFraction(), r.Backlog,
		r.Latency.Median, r.Latency.P99, r.LateExtraSamples)
}

// stageStep is one classify task of a read's decision trajectory: at
// atSamples consumed the filter extends by chunkLen samples and reports
// decision. Trajectories end at the deciding stage.
type stageStep struct {
	atSamples int
	chunkLen  int
	decision  sdtw.Decision
}

// trajKey identifies a pooled read's signal for trajectory memoization.
type trajKey struct {
	p *int16
	n int
}

// fcChannel is one pore's simulation state.
type fcChannel struct {
	gen         int
	plan        ReadPlan
	traj        []stageStep
	nextStep    int
	startT      time.Duration
	readSamples int
	chunks      int
}

// fcTag identifies a virtual task's decision to the event loop.
type fcTag struct {
	ch   int
	gen  int
	step stageStep
}

// fcCoarseTag marks a coarse-tier task: one read's pass over the panel.
// Coarse completions feed the same decision/lateness accounting as stage
// tasks but touch no pore state.
type fcCoarseTag struct{}

// flow-cell event kinds
const (
	fcCapture = iota
	fcChunk
	fcReadEnd
)

type fcEvent struct {
	time time.Duration
	seq  uint64
	kind int
	ch   int
	gen  int
}

type fcHeap []fcEvent

func (h fcHeap) Len() int { return len(h) }
func (h fcHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h fcHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// RunFlowCell simulates cfg.Channels pores for cfg.DurationSec virtual
// seconds against the pipeline's classifier. Verdicts come from real DP
// (each distinct pooled read is classified once through the pipeline and
// its stage trajectory memoized); timing comes from the service-time
// model queued through a deterministic EDF scheduler, so the run is
// reproducible sample for sample. Reads without attached signal sequence
// to completion unclassified.
//
// The event loop is single-threaded and deterministic. One modeling note:
// a channel restarting after an ejection can re-enter the task queue up
// to one chunk period behind the dispatch frontier; the scheduler treats
// the submission as arriving at its release time, which can shift one
// assignment within that window — determinism is unaffected.
func RunFlowCell(pipe *engine.Pipeline, cfg FlowCellConfig, src ReadSource) (FlowCellResult, error) {
	if err := cfg.Config.Validate(); err != nil {
		return FlowCellResult{}, err
	}
	if cfg.SamplesPerBase <= 0 {
		return FlowCellResult{}, fmt.Errorf("minion: SamplesPerBase must be positive for signal-level simulation")
	}
	if cfg.DurationSec <= 0 {
		return FlowCellResult{}, fmt.Errorf("minion: DurationSec must be positive")
	}
	chunkSamples := cfg.ChunkSamples
	if chunkSamples <= 0 {
		chunkSamples = DefaultChunkSamples
	}
	servers := cfg.Servers
	if servers <= 0 {
		servers = pipe.Workers()
	}
	svc := cfg.Service
	if svc == nil {
		svc = pipe.ServiceTime
	}
	sampleHz := cfg.BasesPerSec * cfg.SamplesPerBase
	chunkPeriod := time.Duration(float64(chunkSamples) / sampleHz * float64(time.Second))
	duration := time.Duration(cfg.DurationSec * float64(time.Second))
	spb := cfg.SamplesPerBase

	var coarsePrefix int
	if cfg.Coarse != nil {
		coarsePrefix = cfg.Coarse.Config().CoarsePrefix
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	vs := sched.NewVirtual(servers)
	chans := make([]fcChannel, cfg.Channels)
	trajCache := make(map[trajKey][]stageStep)
	trajectory := func(samples []int16) []stageStep {
		if len(samples) == 0 {
			return nil
		}
		key := trajKey{&samples[0], len(samples)}
		if tr, ok := trajCache[key]; ok {
			return tr
		}
		res := pipe.Classify(samples)
		tr := make([]stageStep, len(res.PerStage))
		prev := 0
		for i, sr := range res.PerStage {
			tr[i] = stageStep{atSamples: sr.Samples, chunkLen: sr.Samples - prev, decision: sr.Decision}
			prev = sr.Samples
		}
		trajCache[key] = tr
		return tr
	}

	var (
		res  = FlowCellResult{Channels: cfg.Channels, DurationSec: cfg.DurationSec, ChunkPeriodSec: chunkPeriod.Seconds()}
		lats []float64
		wats []float64
		h    = &fcHeap{}
		seq  uint64
	)
	push := func(t time.Duration, kind, ch, gen int) {
		*h = append(*h, fcEvent{time: t, seq: seq, kind: kind, ch: ch, gen: gen})
		seq++
		up(*h, len(*h)-1)
	}

	// crossCoarse records that a read's sequenced prefix crossed the
	// cascade's coarse boundary (or the read ended short of it): it owes
	// one coarse pass over the panel, priced on the evidence it buffered
	// and due within a chunk period like any stage decision.
	crossCoarse := func(readSamples int, now time.Duration) {
		p := readSamples
		if p > coarsePrefix {
			p = coarsePrefix
		}
		vs.Submit(sched.VTask{
			Release:  now,
			Deadline: now + chunkPeriod,
			Cost:     cfg.Coarse.CoarseServiceTime(p),
			Tag:      fcCoarseTag{},
		})
		res.CoarseReads++
	}

	// scheduleDelivery queues the channel's next chunk, or the exact read
	// end when less than a full chunk remains.
	scheduleDelivery := func(ch int) {
		c := &chans[ch]
		next := c.startT + time.Duration(c.chunks+1)*chunkPeriod
		end := c.startT + time.Duration(float64(c.readSamples)/sampleHz*float64(time.Second))
		if (c.chunks+1)*chunkSamples >= c.readSamples {
			push(end, fcReadEnd, ch, c.gen)
			return
		}
		push(next, fcChunk, ch, c.gen)
	}

	capture := func(ch int, t time.Duration) {
		push(t+time.Duration(rng.ExpFloat64()*cfg.CaptureMeanSec*float64(time.Second)), fcCapture, ch, chans[ch].gen)
	}

	// submitSteps queues every stage task whose boundary the channel's
	// sequenced prefix has now crossed.
	submitSteps := func(ch int, sequenced int, now time.Duration) {
		c := &chans[ch]
		for c.nextStep < len(c.traj) && c.traj[c.nextStep].atSamples <= sequenced {
			step := c.traj[c.nextStep]
			c.nextStep++
			vs.Submit(sched.VTask{
				Release:  now,
				Deadline: now + chunkPeriod,
				Cost:     svc(step.chunkLen),
				Tag:      fcTag{ch: ch, gen: c.gen, step: step},
			})
		}
	}

	handleCompletion := func(comp sched.Completion) {
		res.Decisions++
		if comp.Late() {
			res.LateDecisions++
		}
		lats = append(lats, comp.Latency().Seconds())
		wats = append(wats, comp.Wait().Seconds())
		if _, ok := comp.Tag.(fcCoarseTag); ok {
			// A coarse pass landed: pure load accounting — a late one
			// already counted against the keep-up verdict above.
			res.CoarsePasses++
			return
		}
		tag := comp.Tag.(fcTag)
		c := &chans[tag.ch]
		if tag.gen != c.gen || tag.step.decision != sdtw.Reject {
			// Stale (the read already ended or was ejected) or
			// non-terminal: the DP ran, the pore state is unchanged.
			return
		}
		// Ejection: the pore kept sequencing from the rejecting boundary
		// until this decision landed — that overrun is the waste a late
		// classifier pays.
		sequenced := int(math.Round((comp.Finish - c.startT).Seconds() * sampleHz))
		if sequenced > c.readSamples {
			sequenced = c.readSamples
		}
		if over := int64(sequenced - tag.step.atSamples); over > 0 {
			res.LateExtraSamples += over
		}
		res.ReadsEjected++
		res.TotalBases += int64(math.Round(float64(sequenced) / spb))
		c.gen++
		capture(tag.ch, comp.Finish+time.Duration(cfg.EjectSec*float64(time.Second)))
	}

	for ch := range chans {
		capture(ch, 0)
	}
	for h.Len() > 0 {
		ev := popMin(h)
		if ev.time > duration {
			break
		}
		for _, comp := range vs.AdvanceTo(ev.time) {
			handleCompletion(comp)
		}
		c := &chans[ev.ch]
		if ev.gen != c.gen {
			continue
		}
		switch ev.kind {
		case fcCapture:
			plan := src(rng)
			c.plan = plan
			c.traj = trajectory(plan.Samples)
			c.nextStep = 0
			c.startT = ev.time
			c.chunks = 0
			c.readSamples = len(plan.Samples)
			if c.readSamples == 0 {
				c.readSamples = int(math.Round(float64(plan.LengthBases) * spb))
			}
			scheduleDelivery(ev.ch)
		case fcChunk:
			c.chunks++
			sequenced := c.chunks * chunkSamples
			if cfg.Coarse != nil && sequenced >= coarsePrefix && sequenced-chunkSamples < coarsePrefix {
				crossCoarse(c.readSamples, ev.time)
			}
			submitSteps(ev.ch, sequenced, ev.time)
			scheduleDelivery(ev.ch)
		case fcReadEnd:
			// The trailing partial chunk delivers at the exact end; any
			// remaining stage (the final partial look) is classified, but
			// its decision cannot eject a finished read.
			if cfg.Coarse != nil && c.chunks*chunkSamples < coarsePrefix {
				// The coarse boundary fell inside the trailing partial
				// chunk, or the read ended short of it (the cascade
				// promotes at Finalize): either way the pass is owed now.
				crossCoarse(c.readSamples, ev.time)
			}
			submitSteps(ev.ch, c.readSamples, ev.time)
			if c.plan.Target {
				res.TargetBases += int64(c.plan.LengthBases)
			}
			res.TotalBases += int64(c.plan.LengthBases)
			res.ReadsFull++
			c.gen++
			capture(ev.ch, ev.time)
		}
	}
	for _, comp := range vs.AdvanceTo(duration) {
		handleCompletion(comp)
	}
	res.Backlog = vs.Pending()
	res.Latency = metrics.Summarize(lats)
	res.Wait = metrics.Summarize(wats)
	res.Utilization = vs.Busy().Seconds() / (cfg.DurationSec * float64(servers))
	if res.Utilization > 1 {
		res.Utilization = 1
	}
	return res, nil
}

// up/popMin keep fcHeap free of container/heap interface boxing on the
// hot path (one event per chunk per channel).
func up(h fcHeap, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.Less(i, parent) {
			return
		}
		h.Swap(i, parent)
		i = parent
	}
}

func popMin(h *fcHeap) fcEvent {
	old := *h
	min := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h).Less(l, small) {
			small = l
		}
		if r < n && (*h).Less(r, small) {
			small = r
		}
		if small == i {
			return min
		}
		(*h).Swap(i, small)
		i = small
	}
}
