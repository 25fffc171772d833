package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"squigglefilter/internal/gpu"
	"squigglefilter/internal/hw"
	"squigglefilter/internal/sdtw"
)

// NewSoftware returns the pure-software back-end: the integer sDTW engine
// of internal/sdtw with no performance model. It is safe for concurrent
// use.
func NewSoftware(ref []int8, cfg sdtw.IntConfig) (*Backend, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("engine: empty reference")
	}
	return newBackend(&swKernel{ref: ref, cfg: cfg}), nil
}

// swKernel is the software kernel: sdtw's int32 row sweep, with its AVX2
// strip where the CPU has one. It is the only kernel whose reference
// dimension the engine partitions (wavefront.go): the hardware kernel shards
// inside the device instead (hw.TileGroup via NewHardwareTiles), and the
// GPU kernel models whole-kernel launches.
type swKernel struct {
	ref []int8
	cfg sdtw.IntConfig
}

func (k *swKernel) name() string { return "sw" }
func (k *swKernel) refLen() int  { return len(k.ref) }

func (k *swKernel) extend(row *sdtw.Row, chunk []int8, _ *Stats) sdtw.IntResult {
	return sdtw.Extend(row, chunk, k.ref, k.cfg)
}

func (k *swKernel) serviceTime(chunkSamples int) time.Duration {
	if chunkSamples <= 0 {
		return 0
	}
	cells := float64(chunkSamples) * float64(len(k.ref))
	return time.Duration(cells * swCellSeconds() * float64(time.Second))
}

// calibrateCellSeconds times one chunk extension of a freshly built DP
// row over synthetic data and returns the best-of-reps seconds-per-cell —
// the way a deployment would calibrate the software classifier against
// its own host before promising a real-time channel count. Each sweep
// calibrates its own rate: the layouts have different per-cell costs
// (vector strips, packed loads, saturating stores), and the scheduler's
// deadline accounting — and the flow-cell keep-up verdict built on it —
// must see the real per-kernel rate.
func calibrateCellSeconds[C sdtw.CostCell, R sdtw.RunCell](extend func(*sdtw.Rows[C, R], []int8, []int8, sdtw.IntConfig) sdtw.IntResult) float64 {
	const (
		calRef   = 4096
		calChunk = 256
		reps     = 3
	)
	rng := rand.New(rand.NewSource(1))
	ref := make([]int8, calRef)
	chunk := make([]int8, calChunk)
	for i := range ref {
		ref[i] = int8(rng.Intn(256) - 128)
	}
	for i := range chunk {
		chunk[i] = int8(rng.Intn(256) - 128)
	}
	cfg := sdtw.DefaultIntConfig()
	row := &sdtw.Rows[C, R]{Cost: make([]C, calRef), Run: make([]R, calRef)}
	best := math.MaxFloat64
	for r := 0; r < reps; r++ {
		row.Reset()
		start := time.Now()
		extend(row, chunk, ref, cfg)
		if s := time.Since(start).Seconds() / (calRef * calChunk); s < best {
			best = s
		}
	}
	return best
}

// The self-calibrated software DP rates in seconds per cell, each measured
// once per process: swCellSeconds is the exact tier's int32 sweep,
// coarseScalarCellSeconds the coarse tier's scalar 16-bit fallback (Score,
// for groups the lane strip cannot take), and laneCellSeconds the coarse
// tier's lane-group strip.
var (
	swCellSeconds           = sync.OnceValue(func() float64 { return calibrateCellSeconds(sdtw.Extend) })
	coarseScalarCellSeconds = sync.OnceValue(func() float64 { return calibrateCellSeconds(sdtw.Extend16) })
	laneCellSeconds         = sync.OnceValue(calibrateLaneCellSeconds)
)

// calibrateLaneCellSeconds times one query scored against one full lane
// group on the coarse tier's geometry (16 decimated references of 200
// samples, a 100-sample decimated query) and returns the best-of-reps
// seconds per cell.
func calibrateLaneCellSeconds() float64 {
	const (
		calRef   = 200
		calQuery = 100
		reps     = 5
	)
	rng := rand.New(rand.NewSource(1))
	refs := make([][]int8, 16)
	for i := range refs {
		refs[i] = make([]int8, calRef)
		for j := range refs[i] {
			refs[i][j] = int8(rng.Intn(256) - 128)
		}
	}
	query := make([]int8, calQuery)
	for i := range query {
		query[i] = int8(rng.Intn(256) - 128)
	}
	// The references are non-empty, the only thing NewCoarseLanes rejects.
	lanes, _ := sdtw.NewCoarseLanes(refs, sdtw.DefaultIntConfig())
	s := lanes.NewScorer()
	costs := make([]int32, len(refs))
	best := math.MaxFloat64
	for r := 0; r < reps; r++ {
		start := time.Now()
		s.ScoreGroup(query, 0, costs)
		if sec := time.Since(start).Seconds() / (16 * calRef * calQuery); sec < best {
			best = sec
		}
	}
	return best
}

// NewHardware returns the cycle-accurate systolic-tile back-end. Costs and
// decisions are bit-identical to the software back-end; Stats additionally
// reports array cycles (including the normalizer's two passes per chunk),
// multi-stage DRAM row traffic, and the latency at the synthesized clock.
//
// One hardware back-end models one tile and classifies one read at a time —
// it is NOT safe for concurrent use. Run several instances through a
// Pipeline to model the device's independent tiles. The reference must fit
// one tile's 100 KB buffer; NewHardwareTiles gangs tiles cooperatively for
// longer references.
func NewHardware(ref []int8, cfg sdtw.IntConfig) (*Backend, error) {
	tile, err := hw.NewTile(ref, cfg)
	if err != nil {
		return nil, err
	}
	return newBackend(&hwKernel{dev: tile}), nil
}

// NewHardwareTiles returns the hardware back-end over a multi-tile
// cooperative group (hw.TileGroup): the reference is sharded across up to
// hw.NumTiles tiles, lifting the single-tile 100 KB ceiling to
// NumTiles x RefBufferBytes at the cost of inter-tile halo DRAM traffic
// (reported in Stats.DRAMBytes). tiles <= 0 auto-sizes to the smallest
// count that holds the reference; a reference that fits one tile with
// tiles <= 1 degrades to the plain single-tile back-end. Like NewHardware,
// the back-end is NOT safe for concurrent use.
func NewHardwareTiles(ref []int8, cfg sdtw.IntConfig, tiles int) (*Backend, error) {
	if tiles <= 1 && len(ref) <= hw.RefBufferBytes {
		return NewHardware(ref, cfg)
	}
	g, err := hw.NewTileGroup(ref, cfg, tiles)
	if err != nil {
		return nil, err
	}
	return newBackend(&hwKernel{dev: g}), nil
}

// tileDevice is the cycle-accurate device a hardware kernel drives: one
// systolic tile or a cooperating TileGroup — same extension contract,
// same CycleStats.
type tileDevice interface {
	RefLen() int
	ExtendRow(query []int8, row *sdtw.Row, threshold int32, useThreshold bool) (sdtw.IntResult, hw.CycleStats)
}

type hwKernel struct {
	dev tileDevice
}

func (k *hwKernel) name() string { return "hw" }
func (k *hwKernel) refLen() int  { return k.dev.RefLen() }

func (k *hwKernel) extend(row *sdtw.Row, chunk []int8, st *Stats) sdtw.IntResult {
	res, cs := k.dev.ExtendRow(chunk, row, 0, false)
	// The normalizer front-end processes each chunk before the array sees
	// it; its structural model (hw.Normalizer) owns the cycle cost.
	st.Cycles += cs.Cycles + hw.NormCycles(len(chunk))
	st.DRAMBytes += cs.DRAMBytes
	st.Latency = time.Duration(float64(st.Cycles) / hw.ClockHz * float64(time.Second))
	return res
}

// serviceTime is exact from the tile/tile-group cycle ledger at the
// synthesized clock: the per-pass load + wavefront cycles ExtendRow
// charges plus the normalizer front-end, with no queueing — queueing is
// the scheduler's to measure.
func (k *hwKernel) serviceTime(chunkSamples int) time.Duration {
	return hw.ExtendLatency(chunkSamples, k.dev.RefLen())
}

// NewGPU returns the calibrated GPU-baseline back-end: it runs the same
// integer sDTW arithmetic as the software back-end (verdicts are
// bit-identical) and models the kernel latency the device would take from
// its measured Table 3 envelope. It is safe for concurrent use.
func NewGPU(ref []int8, cfg sdtw.IntConfig, dev gpu.Device) (*Backend, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("engine: empty reference")
	}
	return newBackend(&gpuKernel{ref: ref, cfg: cfg, dev: dev}), nil
}

type gpuKernel struct {
	ref []int8
	cfg sdtw.IntConfig
	dev gpu.Device
}

func (k *gpuKernel) name() string { return "gpu" }
func (k *gpuKernel) refLen() int  { return len(k.ref) }

func (k *gpuKernel) extend(row *sdtw.Row, chunk []int8, st *Stats) sdtw.IntResult {
	res := sdtw.Extend(row, chunk, k.ref, k.cfg)
	st.Latency += k.serviceTime(len(chunk))
	return res
}

// serviceTime is the calibrated device envelope's kernel latency for one
// chunk extension — the same quantity extend accumulates into
// Stats.Latency, so the scheduler's cost model and the per-read stats
// cannot disagree.
func (k *gpuKernel) serviceTime(chunkSamples int) time.Duration {
	if chunkSamples <= 0 {
		return 0
	}
	ops := sdtw.TotalOps(chunkSamples, len(k.ref))
	return time.Duration(k.dev.SDTWSeconds(ops) * float64(time.Second))
}
