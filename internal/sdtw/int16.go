package sdtw

// The 16-bit saturating kernel: the same recurrence as the 32-bit engine
// (int.go, shard.go) computed in int32 registers but stored as packed
// 16-bit costs and 8-bit run counters — 3 bytes of DP state per reference
// column instead of 8. Stage thresholds bound the useful cost range (a few
// thousand), so costs far above any threshold carry no decision-relevant
// information; the store clamps them to the int16 range instead of keeping
// 32 bits around. That halves-and-more the row traffic of the kernel's
// memory-bound regime: more than twice as many cells per cache line, and
// proportionally more of the reference resident per cache level.
//
// Saturation semantics — why clamping is safe:
//
//   - The store clamp is min/max, not absorbing: a cell is stored as
//     clamp(v, math.MinInt16, math.MaxInt16) where v is the exact int32
//     cell value computed from the *stored* (possibly clamped) operands.
//   - Divergence is confined to the saturation frontier. A clamped
//     operand can only win a cell's min against honest operands that are
//     themselves within MatchBonus*BonusCap (100 at paper defaults) of
//     the ceiling; where a clamp flips which operand wins, the stored
//     run counter can differ too, so a divergent cell may land up to
//     that same 100 above or below its 32-bit value — but each query
//     sample widens the divergence band downward by at most 100, and the
//     divergence dies wherever any honest path is cheaper, which is
//     everywhere costs are decision-sized. Cells whose 32-bit cost stays
//     below Sat16Ceiling (filter.go — MaxInt16 minus a 4096 guard band,
//     40+ samples of worst-case creep) are bit-identical between the
//     kernels, and cells saturated in 32-bit stay above the ceiling in
//     16-bit; the property tests in int16_test.go pin both directions,
//     and TestInt16SaturationNeverFlipsVerdict pins the consequence:
//     with every threshold at or below Sat16MaxThreshold, stage verdicts
//     are identical — saturation never flips an Accept.
//   - The floor clamp engages only when the match bonus drives a cost
//     below MinInt16 = -32768, which is more than 3,000 below every legal
//     threshold (thresholds are non-negative in practice and capped at
//     Sat16MaxThreshold); a floored cost and its exact value compare
//     identically against any such threshold.
//
// Run fits in int8 because run counters are clamped at the bonus cap —
// 10 at the paper's configuration (Section 4.7), and ExtendShard16 caps
// the configured value at MaxInt8 so no IntConfig can overflow the field.

import "math"

const (
	sat16Max = math.MaxInt16 // ceiling the 16-bit store clamps to
	sat16Min = math.MinInt16 // floor the 16-bit store clamps to
)

// Row16 is the packed 16-bit DP state: per reference position a saturating
// 16-bit alignment cost and an 8-bit dwell counter — the same container as
// Row, with the same boundary encoding (zero cost, zero run) and the same
// resume-from-saved-row staging.
type Row16 = Rows[int16, int8]

// Halo16 is the packed kernel's halo: the same chaining protocol as Halo.
type Halo16 = HaloOf[int16, int8]

// ShardedRow16 is the sharded packed row; its serial blocked extension is
// Extend(query, ref, cfg, ExtendShard16).
type ShardedRow16 = Sharded[int16, int8]

// NewRow16 returns the boundary row for a reference of length m.
func NewRow16(m int) *Row16 {
	return &Row16{Cost: make([]int16, m), Run: make([]int8, m)}
}

// sat16 clamps an int32 cell value into the storable int16 range. The
// operands feeding v are themselves stored cells (>= sat16Min) adjusted by
// at most MatchBonus*BonusCap and a distance < 256, so v always fits int32
// with huge margin; only the int16 range needs enforcing.
func sat16(v int32) int32 {
	if v > sat16Max {
		v = sat16Max
	}
	if v < sat16Min {
		v = sat16Min
	}
	return v
}

// bonusTerms16 resolves the effective (bonus, cap) pair the 16-bit kernel
// runs with: a zero bonus zeroes the cap (run values are then only ever
// compared against it), and the cap is clamped to MaxInt8 so no IntConfig
// can overflow the packed int8 run field.
func bonusTerms16(cfg IntConfig) (bonus, cap_ int32) {
	bonus, cap_ = cfg.MatchBonus, cfg.BonusCap
	if bonus == 0 {
		cap_ = 0
	}
	if cap_ > math.MaxInt8 {
		cap_ = math.MaxInt8
	}
	return bonus, cap_
}

// ExtendShard16 is ExtendShard for the packed 16-bit row: identical
// structure and halo protocol, int32 arithmetic, saturating 16-bit stores.
// The per-cell strips live in sweep16.go under the same bounds-check audit
// as the 32-bit ones.
func ExtendShard16(shard *Row16, query []int8, refShard []int8, cfg IntConfig, haloIn, haloOut *Halo16) IntResult {
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
	cost, run, ref := shard.Cost[:m], shard.Run[:m], refShard[:m]
	bonus, cap_ := bonusTerms16(cfg)
	one := boolToInt32(cap_ > 0)
	n := len(query)
	best := IntResult{EndPos: -1}
	for t := 0; t < n; t++ {
		q := int32(query[t])
		if haloOut != nil {
			haloOut.Cost[t], haloOut.Run[t] = cost[m-1], run[m-1]
		}
		diagCost, diagRun := int32(cost[0]), int32(run[0])
		d := q - int32(ref[0])
		if d < 0 {
			d = -d
		}
		var c0 int32
		if haloIn == nil {
			c0 = sat16(diagCost + d)
			cost[0] = int16(c0)
			if diagRun < cap_ {
				run[0] = int8(diagRun + 1)
			}
		} else {
			diag := int32(haloIn.Cost[t]) - bonus*int32(haloIn.Run[t])
			if diag <= diagCost {
				c0 = sat16(d + diag)
				cost[0] = int16(c0)
				run[0] = int8(one)
			} else {
				c0 = sat16(d + diagCost)
				cost[0] = int16(c0)
				vr := diagRun
				if vr < cap_ {
					vr++
				}
				run[0] = int8(vr)
			}
		}
		if t == n-1 {
			bc, bp := sweepRowBest16(cost, run, ref, q, diagCost, diagRun, bonus, cap_, one)
			best = IntResult{Cost: c0, EndPos: 0}
			if bc < c0 {
				best = IntResult{Cost: bc, EndPos: bp}
			}
		} else {
			sweepRow16(cost, run, ref, q, diagCost, diagRun, bonus, cap_, one)
		}
	}
	shard.Samples += n
	if n == 0 {
		best = scanBest16(cost)
	}
	return best
}

// Extend16 is Extend for the packed row: ExtendShard16 over a single shard
// spanning the whole reference.
func Extend16(row *Row16, query []int8, ref []int8, cfg IntConfig) IntResult {
	if row.Len() != len(ref) {
		panic("sdtw: row/reference length mismatch")
	}
	if len(ref) == 0 {
		return IntResult{EndPos: -1}
	}
	return ExtendShard16(row, query, ref, cfg, nil, nil)
}

// IntDP16 runs a complete single-shot 16-bit alignment of query against
// ref.
func IntDP16(query, ref []int8, cfg IntConfig) IntResult {
	row := NewRow16(len(ref))
	return Extend16(row, query, ref, cfg)
}
