package sdtw

// Integer sDTW engine: the exact arithmetic the SquiggleFilter ASIC
// performs. Inputs are 8-bit fixed-point normalized samples
// (internal/normalize), costs are 32-bit signed integers (the match bonus
// can drive costs negative), the distance is the absolute difference, and
// reference deletions are removed so each cell depends only on the previous
// query row:
//
//	S[i][j] = |Q[i]-R[j]| + min(S[i-1][j-1] - bonus(run[i-1][j-1]),
//	                            S[i-1][j])
//
// Ties prefer the diagonal transition, matching the hardware comparator.
// The row-only dependency is what makes the 1D systolic array in
// internal/hw possible, and it is also what makes multi-stage filtering
// cheap: saving the last row (one RowCell per reference position — the
// values the last PE streams to DRAM) lets a later stage resume the DP
// where the previous stage stopped.

// Paper constants for the match bonus (Section 4.7).
const (
	DefaultMatchBonus = 10
	DefaultBonusCap   = 10
)

// IntConfig parameterizes the integer engine. MatchBonus 0 disables the
// bonus entirely.
type IntConfig struct {
	MatchBonus int32
	BonusCap   int32
}

// DefaultIntConfig returns the paper's hardware configuration.
func DefaultIntConfig() IntConfig {
	return IntConfig{MatchBonus: DefaultMatchBonus, BonusCap: DefaultBonusCap}
}

// Rows is the DP state after some number of query samples: per reference
// position, the best alignment cost ending there (Cost) and the dwell
// counter feeding the match bonus (Run — the number of query samples the
// best path aligns to that position, clamped at the bonus cap since larger
// values behave identically). A fresh row encodes the subsequence
// free-start boundary: zero cost everywhere with zero run length.
//
// The container is generic over the cell layout so that only the sweeps
// are width-specific: Row is the exact tier's 32-bit layout — exactly what
// the accelerator's last PE streams to DRAM in multi-stage mode — and
// Row16 the coarse tier's packed 16-bit saturating one (int16.go).
type Rows[C CostCell, R RunCell] struct {
	Cost []C
	Run  []R
	// Samples counts the query samples consumed so far.
	Samples int
}

// CostCell is the stored type of a DP cost cell: int32 for the reference
// kernel, int16 for the packed saturating one.
type CostCell interface{ int32 | int16 }

// RunCell is the stored type of a dwell counter: int32 beside int32 costs,
// int8 in the packed layout.
type RunCell interface{ int32 | int8 }

// Row is the 32-bit reference row: int32 cost, int32 run.
type Row = Rows[int32, int32]

// NewRow returns the boundary row for a reference of length m.
func NewRow(m int) *Row {
	return &Row{Cost: make([]int32, m), Run: make([]int32, m)}
}

// Len returns the reference length the row covers.
func (r *Rows[C, R]) Len() int { return len(r.Cost) }

// Reset returns the row to the boundary state (zero cost and run
// everywhere, no samples consumed) so it can be reused for another read
// without reallocating — the engine's sync.Pool depends on this, so Reset
// sits on the per-read hot path. The two hand-written zeroing loops were
// folded into clear calls, which lower to one memclr per slice; fusing
// them into a single interleaved loop instead measures ~5x slower because
// it defeats that idiom (see BenchmarkRowReset).
func (r *Rows[C, R]) Reset() {
	clear(r.Cost)
	clear(r.Run)
	r.Samples = 0
}

// Clone deep-copies the row (stages snapshot their state before
// continuing).
func (r *Rows[C, R]) Clone() *Rows[C, R] {
	out := &Rows[C, R]{
		Cost:    make([]C, len(r.Cost)),
		Run:     make([]R, len(r.Run)),
		Samples: r.Samples,
	}
	copy(out.Cost, r.Cost)
	copy(out.Run, r.Run)
	return out
}

// IntResult reports an integer alignment.
type IntResult struct {
	Cost   int32
	EndPos int
}

// Extend consumes additional query samples, updating row in place, and
// returns the best cost over the row afterwards. The reference must be the
// same slice (or content) used for every prior extension of this row.
//
// Extend is ExtendShard (shard.go) over a single shard spanning the whole
// reference: one blocked inner loop serves the unsharded kernel, the
// cache-blocked serial path, the parallel shard scheduler, and the
// multi-tile hardware model, so all of them are bit-identical by
// construction.
func Extend(row *Row, query []int8, ref []int8, cfg IntConfig) IntResult {
	if row.Len() != len(ref) {
		panic("sdtw: row/reference length mismatch")
	}
	if len(ref) == 0 {
		return IntResult{EndPos: -1}
	}
	return ExtendShard(row, query, ref, cfg, nil, nil)
}

func boolToInt32(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// IntDP runs a complete single-shot alignment of query against ref.
func IntDP(query, ref []int8, cfg IntConfig) IntResult {
	row := NewRow(len(ref))
	return Extend(row, query, ref, cfg)
}

// IntDPRow is IntDP but also returns the final row, for callers that may
// later resume the alignment with more query samples (multi-stage filter,
// hardware DRAM write-back).
func IntDPRow(query, ref []int8, cfg IntConfig) (IntResult, *Row) {
	row := NewRow(len(ref))
	res := Extend(row, query, ref, cfg)
	return res, row
}
