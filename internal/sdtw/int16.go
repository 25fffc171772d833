package sdtw

// The 16-bit saturating kernel of the cascade's coarse tier: the same
// recurrence as the exact 32-bit kernel (int.go, shard.go) computed in
// int32 registers but stored as packed 16-bit costs and 8-bit run
// counters — 3 bytes of DP state per reference column instead of 8. The
// coarse tier only ranks targets against each other, so costs far above
// any survivor's carry no ranking information; the store clamps them to
// the int16 range instead of keeping 32 bits around. Extend16 is the
// scalar oracle the lane-group strip (lanes.go) is tested against and the
// path every query the strip cannot take is scored on.
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
//     divergence dies wherever any honest path is cheaper. Cells whose
//     32-bit cost stays below Sat16Ceiling (MaxInt16 minus a 4096 guard
//     band, 40+ samples of worst-case creep) are bit-identical between
//     the kernels, and cells saturated in 32-bit stay above the ceiling
//     in 16-bit; TestRow16CellIdentityBelowCeiling pins both directions.
//   - The floor clamp engages only when the match bonus drives a cost
//     below MinInt16 = -32768; a floored cost still ranks below every
//     cost the floor did not touch.
//
// Run fits in int8 because run counters are clamped at the bonus cap —
// 10 at the paper's configuration (Section 4.7), and Extend16 caps the
// configured value at MaxInt8 so no IntConfig can overflow the field.

import "math"

const (
	sat16Max = math.MaxInt16 // ceiling the 16-bit store clamps to
	sat16Min = math.MinInt16 // floor the 16-bit store clamps to

	// Sat16Ceiling is the identity ceiling: every cell whose 32-bit cost
	// stays below it is bit-identical in the 16-bit kernel.
	Sat16Ceiling = sat16Max - 4096
)

// Row16 is the packed 16-bit DP state: per reference position a saturating
// 16-bit alignment cost and an 8-bit dwell counter — the same container as
// Row, with the same boundary encoding (zero cost, zero run) and the same
// resume-from-saved-row staging.
type Row16 = Rows[int16, int8]

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

// Extend16 is Extend for the packed 16-bit row: the same column-0
// boundary and row minimum, int32 arithmetic, saturating 16-bit stores.
// The per-cell strips live in sweep16.go under the same bounds-check
// audit as the 32-bit ones.
func Extend16(row *Row16, query []int8, ref []int8, cfg IntConfig) IntResult {
	m := len(ref)
	if m != row.Len() {
		panic("sdtw: row/reference length mismatch")
	}
	if m == 0 {
		return IntResult{EndPos: -1}
	}
	cost, run, ref := row.Cost[:m], row.Run[:m], ref[:m]
	bonus, cap_ := bonusTerms16(cfg)
	one := boolToInt32(cap_ > 0)
	n := len(query)
	best := IntResult{EndPos: -1}
	for t := 0; t < n; t++ {
		q := int32(query[t])
		diagCost, diagRun := int32(cost[0]), int32(run[0])
		d := q - int32(ref[0])
		if d < 0 {
			d = -d
		}
		c0 := sat16(diagCost + d)
		cost[0] = int16(c0)
		if diagRun < cap_ {
			run[0] = int8(diagRun + 1)
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
	row.Samples += n
	if n == 0 {
		best = scanBest16(cost)
	}
	return best
}

// IntDP16 runs a complete single-shot 16-bit alignment of query against
// ref.
func IntDP16(query, ref []int8, cfg IntConfig) IntResult {
	row := NewRow16(len(ref))
	return Extend16(row, query, ref, cfg)
}
