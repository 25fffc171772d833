package sdtw

// The 16-bit row sweeps: Extend16's per-cell inner loops, in this
// file so the CI bounds-check audit covers them alongside sweep.go. Same
// structure as the 32-bit strips — 4-wide unrolling, branchless selection,
// slice-advance loops for bounds-check elimination — with the cell math in
// int32 registers, a saturating clamp on the store (sat16, int16.go), and
// the packed int16/int8 loads and stores. The clamp is two conditional
// moves per cell; everything else is identical to sweep.go.

// sweepRow16 advances one query sample q across columns [1, m) of a packed
// row in place. diagCost/diagRun are the previous row's column-0
// state widened to int32; bonus, cap_ and one are Extend16's
// pre-resolved constants (cap_ already capped at MaxInt8).
func sweepRow16(cost []int16, run []int8, ref []int8, q, diagCost, diagRun, bonus, cap_, one int32) {
	m := len(cost)
	if m < 2 {
		return
	}
	cost, run, ref = cost[1:m], run[1:m], ref[1:m]
	for len(cost) >= 4 && len(run) >= 4 && len(ref) >= 4 {
		vc0, vr0 := int32(cost[0]), int32(run[0])
		vc1, vr1 := int32(cost[1]), int32(run[1])
		vc2, vr2 := int32(cost[2]), int32(run[2])
		vc3, vr3 := int32(cost[3]), int32(run[3])

		d := q - int32(ref[0])
		s := d >> 31
		d = (d ^ s) - s
		diag := diagCost - bonus*diagRun
		nr := vr0 + 1
		if nr > cap_ {
			nr = cap_
		}
		c, r := vc0, nr
		if diag <= vc0 {
			c, r = diag, one
		}
		nc := d + c
		if nc > sat16Max {
			nc = sat16Max
		}
		if nc < sat16Min {
			nc = sat16Min
		}
		cost[0], run[0] = int16(nc), int8(r)

		d = q - int32(ref[1])
		s = d >> 31
		d = (d ^ s) - s
		diag = vc0 - bonus*vr0
		nr = vr1 + 1
		if nr > cap_ {
			nr = cap_
		}
		c, r = vc1, nr
		if diag <= vc1 {
			c, r = diag, one
		}
		nc = d + c
		if nc > sat16Max {
			nc = sat16Max
		}
		if nc < sat16Min {
			nc = sat16Min
		}
		cost[1], run[1] = int16(nc), int8(r)

		d = q - int32(ref[2])
		s = d >> 31
		d = (d ^ s) - s
		diag = vc1 - bonus*vr1
		nr = vr2 + 1
		if nr > cap_ {
			nr = cap_
		}
		c, r = vc2, nr
		if diag <= vc2 {
			c, r = diag, one
		}
		nc = d + c
		if nc > sat16Max {
			nc = sat16Max
		}
		if nc < sat16Min {
			nc = sat16Min
		}
		cost[2], run[2] = int16(nc), int8(r)

		d = q - int32(ref[3])
		s = d >> 31
		d = (d ^ s) - s
		diag = vc2 - bonus*vr2
		nr = vr3 + 1
		if nr > cap_ {
			nr = cap_
		}
		c, r = vc3, nr
		if diag <= vc3 {
			c, r = diag, one
		}
		nc = d + c
		if nc > sat16Max {
			nc = sat16Max
		}
		if nc < sat16Min {
			nc = sat16Min
		}
		cost[3], run[3] = int16(nc), int8(r)

		diagCost, diagRun = vc3, vr3
		cost, run, ref = cost[4:], run[4:], ref[4:]
	}
	for len(cost) > 0 && len(run) > 0 && len(ref) > 0 {
		vc, vr := int32(cost[0]), int32(run[0])
		d := q - int32(ref[0])
		s := d >> 31
		d = (d ^ s) - s
		diag := diagCost - bonus*diagRun
		nr := vr + 1
		if nr > cap_ {
			nr = cap_
		}
		c, r := vc, nr
		if diag <= vc {
			c, r = diag, one
		}
		nc := d + c
		if nc > sat16Max {
			nc = sat16Max
		}
		if nc < sat16Min {
			nc = sat16Min
		}
		cost[0], run[0] = int16(nc), int8(r)
		diagCost, diagRun = vc, vr
		cost, run, ref = cost[1:], run[1:], ref[1:]
	}
}

// sweepRowBest16 is sweepRow16 with the row-wide minimum of the *stored*
// (clamped) cells tracked as they are written, for the extension's final
// query sample; the caller merges column 0. The column counter j never
// indexes a slice.
func sweepRowBest16(cost []int16, run []int8, ref []int8, q, diagCost, diagRun, bonus, cap_, one int32) (bestCost int32, bestPos int) {
	bestCost = int32(1<<31 - 1)
	bestPos = -1
	m := len(cost)
	if m < 2 {
		return bestCost, bestPos
	}
	cost, run, ref = cost[1:m], run[1:m], ref[1:m]
	j := 1
	for len(cost) >= 4 && len(run) >= 4 && len(ref) >= 4 {
		vc0, vr0 := int32(cost[0]), int32(run[0])
		vc1, vr1 := int32(cost[1]), int32(run[1])
		vc2, vr2 := int32(cost[2]), int32(run[2])
		vc3, vr3 := int32(cost[3]), int32(run[3])

		d := q - int32(ref[0])
		s := d >> 31
		d = (d ^ s) - s
		diag := diagCost - bonus*diagRun
		nr := vr0 + 1
		if nr > cap_ {
			nr = cap_
		}
		c, r := vc0, nr
		if diag <= vc0 {
			c, r = diag, one
		}
		nc := d + c
		if nc > sat16Max {
			nc = sat16Max
		}
		if nc < sat16Min {
			nc = sat16Min
		}
		cost[0], run[0] = int16(nc), int8(r)
		if nc < bestCost {
			bestCost, bestPos = nc, j
		}

		d = q - int32(ref[1])
		s = d >> 31
		d = (d ^ s) - s
		diag = vc0 - bonus*vr0
		nr = vr1 + 1
		if nr > cap_ {
			nr = cap_
		}
		c, r = vc1, nr
		if diag <= vc1 {
			c, r = diag, one
		}
		nc = d + c
		if nc > sat16Max {
			nc = sat16Max
		}
		if nc < sat16Min {
			nc = sat16Min
		}
		cost[1], run[1] = int16(nc), int8(r)
		if nc < bestCost {
			bestCost, bestPos = nc, j+1
		}

		d = q - int32(ref[2])
		s = d >> 31
		d = (d ^ s) - s
		diag = vc1 - bonus*vr1
		nr = vr2 + 1
		if nr > cap_ {
			nr = cap_
		}
		c, r = vc2, nr
		if diag <= vc2 {
			c, r = diag, one
		}
		nc = d + c
		if nc > sat16Max {
			nc = sat16Max
		}
		if nc < sat16Min {
			nc = sat16Min
		}
		cost[2], run[2] = int16(nc), int8(r)
		if nc < bestCost {
			bestCost, bestPos = nc, j+2
		}

		d = q - int32(ref[3])
		s = d >> 31
		d = (d ^ s) - s
		diag = vc2 - bonus*vr2
		nr = vr3 + 1
		if nr > cap_ {
			nr = cap_
		}
		c, r = vc3, nr
		if diag <= vc3 {
			c, r = diag, one
		}
		nc = d + c
		if nc > sat16Max {
			nc = sat16Max
		}
		if nc < sat16Min {
			nc = sat16Min
		}
		cost[3], run[3] = int16(nc), int8(r)
		if nc < bestCost {
			bestCost, bestPos = nc, j+3
		}

		diagCost, diagRun = vc3, vr3
		cost, run, ref = cost[4:], run[4:], ref[4:]
		j += 4
	}
	for len(cost) > 0 && len(run) > 0 && len(ref) > 0 {
		vc, vr := int32(cost[0]), int32(run[0])
		d := q - int32(ref[0])
		s := d >> 31
		d = (d ^ s) - s
		diag := diagCost - bonus*diagRun
		nr := vr + 1
		if nr > cap_ {
			nr = cap_
		}
		c, r := vc, nr
		if diag <= vc {
			c, r = diag, one
		}
		nc := d + c
		if nc > sat16Max {
			nc = sat16Max
		}
		if nc < sat16Min {
			nc = sat16Min
		}
		cost[0], run[0] = int16(nc), int8(r)
		if nc < bestCost {
			bestCost, bestPos = nc, j
		}
		diagCost, diagRun = vc, vr
		cost, run, ref = cost[1:], run[1:], ref[1:]
		j++
	}
	return bestCost, bestPos
}

// scanBest16 is the standalone row minimum for the degenerate zero-sample
// extension: earliest column on ties.
func scanBest16(cost []int16) IntResult {
	if len(cost) == 0 {
		return IntResult{EndPos: -1}
	}
	best := IntResult{Cost: int32(cost[0]), EndPos: 0}
	for j := 1; j < len(cost); j++ {
		if c := int32(cost[j]); c < best.Cost {
			best.Cost, best.EndPos = c, j
		}
	}
	return best
}
