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

// KernelKind selects the DP cell layout of a software back-end: the
// 32-bit reference kernel or the packed 16-bit saturating kernel. Both
// produce identical verdicts on any schedule the 16-bit kernel admits
// (every threshold at or below sdtw.Sat16MaxThreshold — enforced by the
// kernel's stage validation); the 16-bit kernel moves 7 bytes of DP-row
// traffic per cell instead of 17, but its sweep is scalar-only, so it is
// the slower of the two wherever the 32-bit AVX2 sweep runs.
type KernelKind int

const (
	// Kernel32 is the reference layout: int32 cost, int32 run (sdtw.Row).
	Kernel32 KernelKind = iota
	// Kernel16 is the packed saturating layout: int16 cost, int8 run
	// (sdtw.Row16).
	Kernel16
)

// String names the kind as the back-end reports it.
func (k KernelKind) String() string {
	switch k {
	case Kernel32:
		return "int32"
	case Kernel16:
		return "int16"
	default:
		return fmt.Sprintf("KernelKind(%d)", int(k))
	}
}

// NewSoftware returns the pure-software back-end: the integer sDTW engine
// of internal/sdtw with no performance model. It is safe for concurrent
// use.
func NewSoftware(ref []int8, cfg sdtw.IntConfig) (Backend, error) {
	return NewSoftwareKernel(ref, cfg, Kernel32)
}

// NewSoftwareKernel is NewSoftware with an explicit cell layout: Kernel32
// for the 32-bit reference cells, Kernel16 for the packed 16-bit
// saturating cells ("sw16"). The 16-bit back-end rejects stage schedules
// whose thresholds exceed sdtw.Sat16MaxThreshold, and within that bound
// its verdicts are identical to the 32-bit back-end's.
func NewSoftwareKernel(ref []int8, cfg sdtw.IntConfig, kind KernelKind) (Backend, error) {
	k, err := newSoftwareKernel(ref, cfg, kind)
	if err != nil {
		return nil, err
	}
	return newStager(k), nil
}

// NewSoftwareSharded is NewSoftware with the serial cache-blocked sharded
// execution path: every chunk extends the DP row one reference shard at a
// time (width ceil(len(ref)/shards)), halos chaining between neighbours,
// so a shard's working set stays cache-resident for the whole chunk.
// Verdicts, costs, and rows are bit-identical to NewSoftware by
// construction. shards <= 1 (or a single resulting shard) selects the
// plain path. For intra-read *parallelism* over shards, configure the
// sharing at the pipeline instead (Pipeline.SetShards).
func NewSoftwareSharded(ref []int8, cfg sdtw.IntConfig, shards int) (Backend, error) {
	return NewSoftwareShardedKernel(ref, cfg, shards, Kernel32)
}

// NewSoftwareShardedKernel is NewSoftwareSharded with an explicit cell
// layout (see NewSoftwareKernel).
func NewSoftwareShardedKernel(ref []int8, cfg sdtw.IntConfig, shards int, kind KernelKind) (Backend, error) {
	k, err := newSoftwareKernel(ref, cfg, kind)
	if err != nil {
		return nil, err
	}
	s := newStager(k)
	if width := sdtw.ShardWidth(len(ref), shards); width < len(ref) {
		s.shardWidth = width
	}
	return s, nil
}

func newSoftwareKernel(ref []int8, cfg sdtw.IntConfig, kind KernelKind) (kernel, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("engine: empty reference")
	}
	switch kind {
	case Kernel32:
		return &swKernel[int32, int32]{label: "sw", ref: ref, cfg: cfg,
			validate: sdtw.ValidateStages, ext: sdtw.ExtendShard, cellSeconds: swCellSeconds}, nil
	case Kernel16:
		return &swKernel[int16, int8]{label: "sw16", ref: ref, cfg: cfg,
			validate: sdtw.ValidateStages16, ext: sdtw.ExtendShard16, cellSeconds: sw16CellSeconds}, nil
	default:
		return nil, fmt.Errorf("engine: unknown kernel kind %d", int(kind))
	}
}

// swKernel is the software kernel over one DP cell layout: sdtw.Row for
// the 32-bit reference cells ("sw"), sdtw.Row16 for the packed 16-bit
// saturating cells ("sw16"). The width-specific parts are fixed at
// construction (newSoftwareKernel): the stage validator — the 16-bit one
// bounds thresholds by the saturation ceiling — the per-shard sweep, and
// the calibrated cell rate.
type swKernel[C sdtw.CostCell, R sdtw.RunCell] struct {
	label       string
	ref         []int8
	cfg         sdtw.IntConfig
	validate    func([]sdtw.Stage) error
	ext         sdtw.ShardExtend[C, R]
	cellSeconds func() float64
}

func (k *swKernel[C, R]) name() string { return k.label }
func (k *swKernel[C, R]) refLen() int  { return len(k.ref) }
func (k *swKernel[C, R]) newRow() dpRow {
	return &sdtw.Rows[C, R]{Cost: make([]C, len(k.ref)), Run: make([]R, len(k.ref))}
}

func (k *swKernel[C, R]) validateStages(stages []sdtw.Stage) error {
	return k.validate(stages)
}

// extend runs the per-shard sweep over a single shard spanning the whole
// reference, which is exactly sdtw.Extend / sdtw.Extend16.
func (k *swKernel[C, R]) extend(row dpRow, chunk []int8, _ *Stats) sdtw.IntResult {
	return k.ext(row.(*sdtw.Rows[C, R]), chunk, k.ref, k.cfg, nil, nil)
}

func (k *swKernel[C, R]) shardRow(row dpRow, width int) shardPlan {
	return swPlan[C, R]{k: k, sr: sdtw.ShardRow(row.(*sdtw.Rows[C, R]), width)}
}

func (k *swKernel[C, R]) newHalo() any { return &sdtw.HaloOf[C, R]{} }

func (k *swKernel[C, R]) serviceTime(chunkSamples int) time.Duration {
	if chunkSamples <= 0 {
		return 0
	}
	cells := float64(chunkSamples) * float64(len(k.ref))
	return time.Duration(cells * k.cellSeconds() * float64(time.Second))
}

// swPlan shards a row of the software kernel's cell layout.
type swPlan[C sdtw.CostCell, R sdtw.RunCell] struct {
	k  *swKernel[C, R]
	sr *sdtw.Sharded[C, R]
}

func (p swPlan[C, R]) numShards() int          { return p.sr.NumShards() }
func (p swPlan[C, R]) bounds(k int) (int, int) { return p.sr.Bounds(k) }
func (p swPlan[C, R]) advance(n int)           { p.sr.Row().Samples += n }
func (p swPlan[C, R]) extendShard(k int, chunk []int8, haloIn, haloOut any, _ *Stats) sdtw.IntResult {
	lo, hi := p.sr.Bounds(k)
	var in, out *sdtw.HaloOf[C, R]
	if haloIn != nil {
		in = haloIn.(*sdtw.HaloOf[C, R])
	}
	if haloOut != nil {
		out = haloOut.(*sdtw.HaloOf[C, R])
	}
	return p.k.ext(p.sr.Shard(k), chunk, p.k.ref[lo:hi], p.k.cfg, in, out)
}

func (p swPlan[C, R]) extend(chunk []int8) sdtw.IntResult {
	return p.sr.Extend(chunk, p.k.ref, p.k.cfg, p.k.ext)
}

// calibrateCellSeconds times one chunk extension of a freshly built DP
// row over synthetic data and returns the best-of-reps seconds-per-cell —
// the way a deployment would calibrate the software classifier against
// its own host before promising a real-time channel count. Each cell
// layout calibrates its own rate through its own sweep: the layouts have
// different per-cell costs (packed loads, saturating stores), and the
// scheduler's deadline accounting — and the flow-cell keep-up verdict
// built on it — must see the real per-kernel rate.
func calibrateCellSeconds[C sdtw.CostCell, R sdtw.RunCell](ext sdtw.ShardExtend[C, R]) float64 {
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
		ext(row, chunk, ref, cfg, nil, nil)
		if s := time.Since(start).Seconds() / (calRef * calChunk); s < best {
			best = s
		}
	}
	return best
}

// swCellSeconds and sw16CellSeconds are the self-calibrated software DP
// rates in seconds per cell for the 32-bit and packed 16-bit layouts,
// each measured once per process. laneCellSeconds is the coarse tier's
// lane-group kernel, calibrated once per process the same way.
var (
	swCellSeconds   = sync.OnceValue(func() float64 { return calibrateCellSeconds(sdtw.ExtendShard) })
	sw16CellSeconds = sync.OnceValue(func() float64 { return calibrateCellSeconds(sdtw.ExtendShard16) })
	laneCellSeconds = sync.OnceValue(calibrateLaneCellSeconds)
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
func NewHardware(ref []int8, cfg sdtw.IntConfig) (Backend, error) {
	tile, err := hw.NewTile(ref, cfg)
	if err != nil {
		return nil, err
	}
	return newStager(&hwKernel{dev: tile}), nil
}

// NewHardwareTiles returns the hardware back-end over a multi-tile
// cooperative group (hw.TileGroup): the reference is sharded across up to
// hw.NumTiles tiles, lifting the single-tile 100 KB ceiling to
// NumTiles x RefBufferBytes at the cost of inter-tile halo DRAM traffic
// (reported in Stats.DRAMBytes). tiles <= 0 auto-sizes to the smallest
// count that holds the reference; a reference that fits one tile with
// tiles <= 1 degrades to the plain single-tile back-end. Like NewHardware,
// the back-end is NOT safe for concurrent use.
func NewHardwareTiles(ref []int8, cfg sdtw.IntConfig, tiles int) (Backend, error) {
	if tiles <= 1 && len(ref) <= hw.RefBufferBytes {
		return NewHardware(ref, cfg)
	}
	g, err := hw.NewTileGroup(ref, cfg, tiles)
	if err != nil {
		return nil, err
	}
	return newStager(&hwKernel{dev: g}), nil
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

func (k *hwKernel) name() string  { return "hw" }
func (k *hwKernel) refLen() int   { return k.dev.RefLen() }
func (k *hwKernel) newRow() dpRow { return sdtw.NewRow(k.dev.RefLen()) }

func (k *hwKernel) validateStages(stages []sdtw.Stage) error {
	return sdtw.ValidateStages(stages)
}

func (k *hwKernel) extend(row dpRow, chunk []int8, st *Stats) sdtw.IntResult {
	res, cs := k.dev.ExtendRow(chunk, row.(*sdtw.Row), 0, false)
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
func NewGPU(ref []int8, cfg sdtw.IntConfig, dev gpu.Device) (Backend, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("engine: empty reference")
	}
	return newStager(&gpuKernel{ref: ref, cfg: cfg, dev: dev}), nil
}

type gpuKernel struct {
	ref []int8
	cfg sdtw.IntConfig
	dev gpu.Device
}

func (k *gpuKernel) name() string  { return "gpu" }
func (k *gpuKernel) refLen() int   { return len(k.ref) }
func (k *gpuKernel) newRow() dpRow { return sdtw.NewRow(len(k.ref)) }

func (k *gpuKernel) validateStages(stages []sdtw.Stage) error {
	return sdtw.ValidateStages(stages)
}

func (k *gpuKernel) extend(row dpRow, chunk []int8, st *Stats) sdtw.IntResult {
	res := sdtw.Extend(row.(*sdtw.Row), chunk, k.ref, k.cfg)
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
