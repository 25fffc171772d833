package sdtw

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sweepCase is one row update: a query sample against columns [1, m) of
// cost/run/ref at offset off into a longer backing array (Sharded views
// alias the backing row at arbitrary column offsets, so the strip sees
// unaligned starts).
type sweepCase struct {
	cost, run                              []int32
	ref                                    []int8
	off                                    int
	q, diagCost, diagRun, bonus, cap_, one int32
}

// checkSweepIdentity runs the dispatched sweep and the scalar sweepRow on
// copies of the same row and requires bit-identical cost and run arrays —
// including the cells outside the swept view, which neither may touch.
func checkSweepIdentity(t *testing.T, c sweepCase, m int) {
	t.Helper()
	wantCost, wantRun := slices.Clone(c.cost), slices.Clone(c.run)
	gotCost, gotRun := slices.Clone(c.cost), slices.Clone(c.run)
	end := c.off + m
	sweepRow(wantCost[c.off:end], wantRun[c.off:end], c.ref[c.off:end], c.q, c.diagCost, c.diagRun, c.bonus, c.cap_, c.one)
	sweepRowDispatch(gotCost[c.off:end], gotRun[c.off:end], c.ref[c.off:end], c.q, c.diagCost, c.diagRun, c.bonus, c.cap_, c.one)
	for j := range wantCost {
		if gotCost[j] != wantCost[j] || gotRun[j] != wantRun[j] {
			t.Fatalf("m=%d off=%d q=%d bonus=%d cap=%d one=%d: column %d = (%d, %d), scalar (%d, %d)",
				m, c.off, c.q, c.bonus, c.cap_, c.one, j-c.off, gotCost[j], gotRun[j], wantCost[j], wantRun[j])
		}
	}
}

// randSweepCase fills a backing array of off+m+pad cells. extreme draws
// costs and runs from the full int32 range (biased toward its ends) so the
// wrapping subtract, multiply and increment are exercised.
func randSweepCase(rng *rand.Rand, off, m int, extreme bool) sweepCase {
	n := off + m + 3
	c := sweepCase{cost: make([]int32, n), run: make([]int32, n), ref: make([]int8, n), off: off}
	draw := func(small int32) int32 {
		if !extreme {
			return rng.Int31n(2*small+1) - small
		}
		switch rng.Intn(4) {
		case 0:
			return math.MaxInt32 - rng.Int31n(64)
		case 1:
			return math.MinInt32 + rng.Int31n(64)
		case 2:
			return rng.Int31n(64) - 32
		}
		return int32(rng.Uint32())
	}
	for j := range c.cost {
		c.cost[j] = draw(5000)
		c.run[j] = draw(12)
		c.ref[j] = int8(rng.Intn(256) - 128)
	}
	c.q = int32(int8(rng.Intn(256) - 128))
	c.diagCost, c.diagRun = draw(5000), draw(12)
	c.bonus, c.cap_ = DefaultMatchBonus, DefaultBonusCap
	switch rng.Intn(5) {
	case 0:
		c.bonus, c.cap_ = 0, 0
	case 1:
		c.bonus = 0
	case 2:
		c.cap_ = 0
	case 3:
		c.bonus, c.cap_ = math.MaxInt32-rng.Int31n(8), rng.Int31n(40)
	}
	if c.cap_ > 0 {
		c.one = 1
	}
	return c
}

// TestSweepRowSIMDIdentity is the vector strip's contract: on every row
// length from 0 through the 16-column strip entry and past several block
// boundaries, at odd offsets, with ordinary and near-extreme int32 state
// and degenerate or huge bonus constants, the dispatched sweep leaves the
// row bit-identical to the scalar sweepRow. Under -tags purego (or off
// amd64) the two are the same function and the test is trivially true.
func TestSweepRowSIMDIdentity(t *testing.T) {
	t.Logf("active sweep: %s", Sweep())
	rng := rand.New(rand.NewSource(14))
	for m := 0; m <= 72; m++ {
		for _, off := range []int{0, 1, 3, 7} {
			for _, extreme := range []bool{false, true} {
				for rep := 0; rep < 8; rep++ {
					checkSweepIdentity(t, randSweepCase(rng, off, m, extreme), m)
				}
			}
		}
	}
	// A full-width row, as virus-30k's exact tier sweeps it.
	for rep := 0; rep < 4; rep++ {
		checkSweepIdentity(t, randSweepCase(rng, rep, 30011, rep%2 == 1), 30011)
	}
}

// FuzzSweepRow drives the same identity from fuzzer-chosen bytes: the
// scalar constants come from the arguments, and the row's cells are
// decoded from data as little-endian (cost, run, ref) triples, so the
// fuzzer can reach any int32 state directly.
func FuzzSweepRow(f *testing.F) {
	f.Add(uint8(0), uint8(40), int8(17), int32(100), int32(2), int32(DefaultMatchBonus), int32(DefaultBonusCap), make([]byte, 9*48))
	f.Add(uint8(3), uint8(18), int8(-128), int32(math.MinInt32), int32(math.MaxInt32), int32(0), int32(0), make([]byte, 9*24))
	f.Add(uint8(1), uint8(33), int8(127), int32(math.MaxInt32), int32(-1), int32(math.MaxInt32), int32(7), []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, off, m uint8, q int8, diagCost, diagRun, bonus, cap_ int32, data []byte) {
		o, n := int(off%8), int(m%80)
		c := sweepCase{
			cost: make([]int32, o+n), run: make([]int32, o+n), ref: make([]int8, o+n), off: o,
			q: int32(q), diagCost: diagCost, diagRun: diagRun, bonus: bonus, cap_: cap_,
		}
		if cap_ > 0 {
			c.one = 1
		}
		for j := range c.cost {
			if len(data) < 9 {
				break
			}
			c.cost[j] = int32(binary.LittleEndian.Uint32(data))
			c.run[j] = int32(binary.LittleEndian.Uint32(data[4:]))
			c.ref[j] = int8(data[8])
			data = data[9:]
		}
		checkSweepIdentity(t, c, n)
	})
}
