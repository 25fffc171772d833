// Package engine unifies SquiggleFilter's classification back-ends as one
// Backend type and schedules reads across them concurrently.
//
// Three constructors program a Backend:
//
//   - the pure-software integer sDTW filter (NewSoftware, internal/sdtw);
//   - the cycle-accurate systolic tile (NewHardware, internal/hw), which
//     additionally reports cycle and DRAM statistics;
//   - the calibrated GPU baseline (NewGPU, internal/gpu), which reports the
//     modeled kernel latency of the paper's Table 3 devices.
//
// All three share one staging policy — per-stage chunk normalization
// (internal/normalize) followed by a DP-row extension — implemented once in
// this package, so their costs and decisions are bit-identical across every
// stage of a multi-stage schedule by construction. Only the per-chunk DP
// kernel (and its performance accounting) differs per back-end.
//
// The staging policy itself is incremental: a Session accepts raw signal
// in arbitrary chunk sizes (Feed) and decides the moment a stage boundary
// is crossed, exactly as the live Read Until loop requires; one-shot
// Classify is a Session fed the whole read at once, so streamed and
// one-shot verdicts are bit-identical by construction too.
//
// On top of Backend, Pipeline schedules reads over a pool of back-end
// instances — the software analogue of the accelerator's independent
// tiles. A Session is the only way a pipeline runs a read: Classify,
// ClassifyBatch and live sessions (Pipeline.NewSession) all borrow an
// instance per stage chunk, or, with SetShards, spread each chunk's
// (shard, block) wavefront across the pool. Panel classifies one read
// against several reference genomes at once, picking the best-matching
// target.
package engine

import (
	"sync"
	"time"

	"squigglefilter/internal/sdtw"
)

// Stats is a back-end's optional performance accounting for one
// classification. The software back-end reports zeroes; the hardware
// back-end reports systolic-array cycles, multi-stage DRAM traffic, and the
// latency those cycles take at the synthesized clock; the GPU back-end
// reports the modeled kernel latency only.
type Stats struct {
	Cycles    int64
	DRAMBytes int64
	Latency   time.Duration
}

// Result is the outcome of classifying one read prefix on a back-end.
type Result struct {
	// Decision is Accept, Reject, or Continue (read ended before the first
	// stage boundary).
	Decision sdtw.Decision
	// Cost and EndPos describe the alignment at the deciding stage.
	Cost   int32
	EndPos int
	// SamplesUsed is how many raw samples were consumed before deciding.
	SamplesUsed int
	// PerStage records every stage evaluated.
	PerStage []sdtw.StageResult
	// Stats is the back-end's performance accounting.
	Stats Stats
}

// ValidateStages checks a stage schedule: non-empty, positive and strictly
// increasing prefix lengths (delegates to the single validator in sdtw).
func ValidateStages(stages []sdtw.Stage) error {
	return sdtw.ValidateStages(stages)
}

// kernel is the per-chunk DP extension a back-end contributes. Everything
// else — stage chunking, normalization, thresholds, decisions — is shared
// in Backend, which is what makes verdicts bit-identical across back-ends.
// Every kernel extends the same int32 row (sdtw.Row) at the programmed
// reference length, which is what the accelerator's last PE parks in DRAM
// between stages.
type kernel interface {
	name() string
	refLen() int
	// extend consumes one normalized chunk, updating row in place, and
	// returns the best cost over the row; performance accounting
	// accumulates into st.
	extend(row *sdtw.Row, chunk []int8, st *Stats) sdtw.IntResult
	// serviceTime models the wall-clock cost of one extend call over a
	// normalized chunk of chunkSamples samples — the price the scheduler
	// charges a task. The hardware kernel derives it exactly from the
	// tile/tile-group cycle ledger at the synthesized clock; the GPU
	// kernel from the calibrated device envelope; the software kernel
	// self-calibrates a cells-per-second rate on first use.
	serviceTime(chunkSamples int) time.Duration
}

// Backend classifies staged read prefixes against the reference it was
// programmed with: the single normalization and staging policy over a
// back-end's kernel, with sync.Pool-reused DP rows and staging buffers so
// the hot loop does not allocate per read. A back-end is programmed once
// (reference + IntConfig) and classifies many reads. The software and GPU
// back-ends are safe for concurrent use; the hardware tile is not —
// Pipeline grants callers exclusive instances either way.
type Backend struct {
	k    kernel
	pool sync.Pool
}

func newBackend(k kernel) *Backend {
	b := &Backend{k: k}
	b.pool.New = func() any { return newSessionState(sdtw.NewRow(k.refLen())) }
	return b
}

// Name identifies the back-end kind ("sw", "hw", "gpu").
func (b *Backend) Name() string { return b.k.name() }

// RefLen returns the programmed reference length in samples.
func (b *Backend) RefLen() int { return b.k.refLen() }

// newSession wires a Session to this back-end's kernel and row pool. The
// schedule must already be validated. Direct back-end sessions never wait
// on a scheduler, so their extend hook is infallible.
func (b *Backend) newSession(stages []sdtw.Stage) *Session {
	ps := b.pool.Get().(*sessionState)
	ps.row.Reset()
	extend := func(row *sdtw.Row, chunk []int8, st *Stats) (sdtw.IntResult, error) {
		return b.k.extend(row, chunk, st), nil
	}
	return newSession(stages, ps, extend, func(ps *sessionState) { b.pool.Put(ps) })
}

// NewSession starts an incremental classification of one read under the
// given schedule: feed raw signal in arbitrary chunks, get the verdict at
// the first crossed stage boundary that decides. It errors only on an
// invalid schedule. Sessions of a non-concurrency-safe back-end (the
// hardware tile) share that instance's state only while Feed is running
// DP work; interleave them from one goroutine or use Pipeline.NewSession.
func (b *Backend) NewSession(stages []sdtw.Stage) (*Session, error) {
	if err := sdtw.ValidateStages(stages); err != nil {
		return nil, err
	}
	return b.newSession(stages), nil
}

// Classify runs the staged filter over a read's raw 10-bit samples: each
// stage normalizes only the newly arrived chunk as one window (the
// hardware normalizer works on fixed windows as samples stream in) and
// extends the saved DP row, so no DP work is repeated across stages. A
// read shorter than the first stage boundary is decided with whatever
// signal exists; a zero-length read yields the Continue verdict (no
// signal, no decision) on every back-end.
//
// Classify is a Session fed the whole read at once, which is what makes
// streamed and one-shot classification bit-identical by construction.
func (b *Backend) Classify(samples []int16, stages []sdtw.Stage) Result {
	sess := b.newSession(stages)
	sess.Feed(samples)
	return sess.Finalize()
}
