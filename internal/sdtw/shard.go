package sdtw

// Reference sharding. The hardware recurrence (int.go) removed reference
// deletions, so S[i][j] depends only on S[i-1][j-1] and S[i-1][j] — there
// is no intra-row dependency. That makes the reference dimension shardable:
// a shard covering columns [lo, hi) can be extended by K query samples
// completely independently of the columns to its right, and its only
// dependency on the columns to its left is a K-deep *halo* — the left
// neighbour's last column as it looked before each of the K samples was
// consumed (exactly the S[i-1][lo-1] diagonal operands). Each shard
// records the same trace of its own last column while it extends, so halos
// chain left to right and sharded extension is bit-identical to the
// unsharded kernel by construction.
//
// Sharding serves three masters at once:
//
//   - cache blocking: walking one ~L2-sized shard through all K samples
//     before moving right keeps the DP state hot instead of streaming the
//     whole row per sample (Sharded.Extend is the blocked kernel). It
//     pays once the row outgrows L2 (~16% on a 499,960-column row at
//     width 65,536); on a row that fits L2, widths of 4,096 and up run
//     within ~6% of the unsharded sweep (EXPERIMENTS.md "VEX-clean strip
//     entry");
//   - intra-read parallelism: (shard, sample-block) tasks form a wavefront
//     a worker pool can schedule (internal/engine's sharded pipeline path);
//   - multi-tile hardware: each shard is one tile's reference buffer, the
//     halo is what the tile's last PE streams to its right neighbour
//     (internal/hw's TileGroup).

// Halo is the K-deep edge-column trace exchanged between adjacent
// reference shards: Cost[t] and Run[t] are the left shard's last-column DP
// state after t query samples of the current extension (t = 0 is the state
// before the extension began). In the accelerator this is exactly the
// stream a tile's last PE produces, one cell per query row.
type Halo struct {
	Cost []int32
	Run  []int32
}

// NewHalo returns a halo with capacity for n query samples.
func NewHalo(n int) *Halo {
	return &Halo{Cost: make([]int32, n), Run: make([]int32, n)}
}

// Reserve resizes the halo to exactly n entries, reallocating only when it
// grows past capacity — halo buffers are reused across chunks and shards.
func (h *Halo) Reserve(n int) {
	if cap(h.Cost) < n {
		h.Cost = make([]int32, n)
		h.Run = make([]int32, n)
		return
	}
	h.Cost = h.Cost[:n]
	h.Run = h.Run[:n]
}

// Len returns the number of entries the halo currently holds.
func (h *Halo) Len() int { return len(h.Cost) }

// Sweep names the 32-bit row sweep ExtendShard runs in this process:
// "int32/avx2" where the CPU and OS support the vector strip, otherwise
// "int32/scalar". It is fixed at start-up, so a timing can be tied to the
// path that produced it. CoarseSweep names the coarse tier's kernel the
// same way.
func Sweep() string {
	if haveAVX2 {
		return "int32/avx2"
	}
	return "int32/scalar"
}

// ExtendShard consumes query samples for one reference shard, updating
// shard (whose Cost/Run cover exactly the shard's columns) in place, and
// returns the best cost over the shard with EndPos local to it.
//
// refShard holds the shard's reference samples. haloIn, when non-nil,
// carries the left neighbour's last-column trace — haloIn entry t is that
// column's state after t samples of this same query slice — and must hold
// at least len(query) entries; nil marks the leftmost shard, whose first
// column takes the vertical-only boundary transition exactly as Extend's
// column 0 does. haloOut, when non-nil, is Reserve'd to len(query) and
// receives this shard's own last-column trace for the right neighbour.
//
// This is the one blocked inner loop every engine shares: Extend is
// ExtendShard over a single full-width shard, so sharded and unsharded
// classification are bit-identical by construction. The per-cell strips
// live in sweep.go (branchless, 4-wide unrolled, bounds-check-free), with
// an AVX2 strip under every row but the last where the CPU has one
// (sweep_amd64.s); the end-of-extension row minimum rides the final
// sample's scalar sweep instead of costing a separate full-row pass per
// call.
func ExtendShard(shard *Row, query []int8, refShard []int8, cfg IntConfig, haloIn, haloOut *Halo) IntResult {
	m := len(refShard)
	if m != shard.Len() {
		panic("sdtw: shard/reference length mismatch")
	}
	if m == 0 {
		return IntResult{EndPos: -1}
	}
	if haloIn != nil && haloIn.Len() < len(query) {
		panic("sdtw: halo shallower than the query extension")
	}
	if haloOut != nil {
		haloOut.Reserve(len(query))
	}
	// Hoist the slice headers (and their bounds checks) out of the sample
	// loop: every index below is provably < m.
	cost, run, ref := shard.Cost[:m], shard.Run[:m], refShard[:m]
	bonus, cap_ := cfg.MatchBonus, cfg.BonusCap
	if bonus == 0 {
		cap_ = 0 // run values are then only ever compared against cap_
	}
	one := boolToInt32(cap_ > 0)
	n := len(query)
	best := IntResult{EndPos: -1}
	for t := 0; t < n; t++ {
		q := int32(query[t])
		if haloOut != nil {
			// The right neighbour's diagonal operand for sample t is this
			// shard's last column *before* sample t lands.
			haloOut.Cost[t], haloOut.Run[t] = cost[m-1], run[m-1]
		}
		// diagCost/diagRun carry S[i-1][j-1] while we overwrite in place.
		diagCost, diagRun := cost[0], run[0]
		d := q - int32(ref[0])
		if d < 0 {
			d = -d
		}
		var c0 int32
		if haloIn == nil {
			// Global column 0: vertical transition only (the free start is
			// encoded in the boundary row).
			c0 = cost[0] + d
			cost[0] = c0
			if run[0] < cap_ {
				run[0]++
			}
		} else {
			// Interior shard: the diagonal operand comes from the halo.
			diag := haloIn.Cost[t] - bonus*haloIn.Run[t]
			vc, vr := cost[0], run[0]
			if diag <= vc {
				c0 = d + diag
				cost[0] = c0
				run[0] = one
			} else {
				c0 = d + vc
				cost[0] = c0
				if vr < cap_ {
					vr++
				}
				run[0] = vr
			}
		}
		if t == n-1 {
			// Final sample: the row-wide minimum is tracked inside the
			// sweep itself — no separate scan pass. Column 0 seeds the
			// best so the earliest column wins ties, as the ascending
			// strict-< scan always did.
			bc, bp := sweepRowBest(cost, run, ref, q, diagCost, diagRun, bonus, cap_, one)
			best = IntResult{Cost: c0, EndPos: 0}
			if bc < c0 {
				best = IntResult{Cost: bc, EndPos: bp}
			}
		} else {
			sweepRowDispatch(cost, run, ref, q, diagCost, diagRun, bonus, cap_, one)
		}
	}
	shard.Samples += n
	if n == 0 {
		// Degenerate zero-sample extension: nothing swept, so the minimum
		// of the untouched row is scanned directly.
		best = scanBest(cost)
	}
	return best
}

// Sharded splits a row's Cost/Run into fixed-width reference shards, each
// a view aliasing the backing row's storage, so sharded and unsharded
// extension read and write the very same cells. The backing row remains the
// single source of truth: stage snapshots (Clone), pool reuse (Reset), and
// the hardware DRAM row format are unchanged.
type Sharded struct {
	row    *Row
	shards []Row
	bounds []int // len(shards)+1 column offsets
	// haloA/haloB ping-pong between adjacent shard boundaries during the
	// serial blocked Extend; shard k's output halo is shard k+1's input,
	// after which the buffer is free again for shard k+2's output.
	haloA, haloB Halo
}

// ShardWidth returns the balanced shard width for a reference of m columns
// split into the given number of shards: ceil(m/shards), with shards
// clamped to [1, m] so no shard is empty. A non-positive m (an empty
// reference, which callers must reject before sharding) yields 0.
func ShardWidth(m, shards int) int {
	if m <= 0 {
		return 0
	}
	if shards < 1 {
		shards = 1
	}
	if shards > m {
		shards = m
	}
	return (m + shards - 1) / shards
}

// ShardRow wraps an existing row in shard views of the given width. Width
// is clamped to [1, row.Len()]; a width at or past the row length yields a
// single shard, making the sharded path degrade to the plain kernel.
func ShardRow(row *Row, width int) *Sharded {
	m := row.Len()
	if m == 0 {
		panic("sdtw: cannot shard an empty row")
	}
	if width < 1 || width > m {
		width = m
	}
	n := (m + width - 1) / width
	sr := &Sharded{row: row, shards: make([]Row, n), bounds: make([]int, n+1)}
	for k := 0; k < n; k++ {
		lo := k * width
		hi := min(lo+width, m)
		sr.shards[k] = Row{Cost: row.Cost[lo:hi:hi], Run: row.Run[lo:hi:hi], Samples: row.Samples}
		sr.bounds[k] = lo
	}
	sr.bounds[n] = m
	return sr
}

// NewShardedRow builds a fresh boundary row of length m pre-split into
// width-column shards.
func NewShardedRow(m, width int) *Sharded {
	return ShardRow(NewRow(m), width)
}

// Row returns the backing full-length row.
func (sr *Sharded) Row() *Row { return sr.row }

// NumShards returns the shard count.
func (sr *Sharded) NumShards() int { return len(sr.shards) }

// Shard returns the k-th shard view. Extensions through the view update
// the backing row in place.
func (sr *Sharded) Shard(k int) *Row { return &sr.shards[k] }

// Bounds returns the k-th shard's half-open global column range [lo, hi).
func (sr *Sharded) Bounds(k int) (lo, hi int) {
	return sr.bounds[k], sr.bounds[k+1]
}

// MergeShardResult folds one shard's local best (from ExtendShard) into a
// running row-wide best, offsetting EndPos by the shard's first column.
// Call it in ascending shard order: the strict comparison keeps the
// earliest column on ties, exactly as the unsharded Extend scan does.
func MergeShardResult(best IntResult, r IntResult, lo int) IntResult {
	if r.EndPos >= 0 {
		r.EndPos += lo
	}
	if best.EndPos < 0 || r.Cost < best.Cost {
		return r
	}
	return best
}

// ExtendWith walks one n-sample extension across every shard serially,
// left to right, delegating the per-shard work to fn: shard k's recorded
// halo trace (haloOut, the ping-ponged haloA/haloB buffers) becomes shard
// k+1's haloIn, per-shard bests fold through MergeShardResult, and the
// backing row's sample count advances by n. This is the one serial
// chaining loop every consumer shares — the software blocked kernel
// (Extend below, which the engine's serial sharded path runs) and the
// multi-tile hardware group pass their own fn, so the halo protocol
// cannot drift between them.
func (sr *Sharded) ExtendWith(n int, fn func(k, lo int, shard *Row, haloIn, haloOut *Halo) IntResult) IntResult {
	best := IntResult{EndPos: -1}
	var in *Halo
	for k := range sr.shards {
		lo := sr.bounds[k]
		var out *Halo
		if k < len(sr.shards)-1 {
			out = &sr.haloA
			if k%2 == 1 {
				out = &sr.haloB
			}
		}
		best = MergeShardResult(best, fn(k, lo, &sr.shards[k], in, out), lo)
		in = out
	}
	sr.row.Samples += n
	return best
}

// Extend consumes query samples across every shard with ExtendShard — the
// cache-blocked form of Extend: shard k walks the whole query slice
// before shard k+1 starts, so a shard's working set (cost+run+reference,
// ~10 bytes/column) stays cache-resident for the entire block instead of
// the full row streaming through per sample. Halos chain between
// neighbours, so the result and the backing row are bit-identical to the
// unsharded kernel on the same inputs (property-tested in shard_test.go).
func (sr *Sharded) Extend(query []int8, ref []int8, cfg IntConfig) IntResult {
	if len(ref) != sr.row.Len() {
		panic("sdtw: row/reference length mismatch")
	}
	return sr.ExtendWith(len(query), func(_, lo int, shard *Row, haloIn, haloOut *Halo) IntResult {
		return ExtendShard(shard, query, ref[lo:lo+shard.Len()], cfg, haloIn, haloOut)
	})
}
