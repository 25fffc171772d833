package sdtw

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randRead synthesizes a query that genuinely aligns to ref: a walk along
// the reference from a random start with small dwell/skip moves and ±2
// noise. Matching reads keep the best cost low (Accept territory) while
// the rest of the row saturates, which is exactly the regime the 16-bit
// kernel must survive.
func randRead(rng *rand.Rand, ref []int8, n int) []int8 {
	q := make([]int8, n)
	pos := rng.Intn(len(ref))
	for i := range q {
		v := int(ref[pos]) + rng.Intn(5) - 2
		if v > 127 {
			v = 127
		}
		if v < -127 {
			v = -127
		}
		q[i] = int8(v)
		switch rng.Intn(4) {
		case 0: // dwell: stay on this reference sample
		default:
			if pos+1 < len(ref) {
				pos++
			}
		}
	}
	return q
}

// TestRow16CellIdentityBelowCeiling is the saturation identity property:
// over random and reference-matching reads, chunked extension schedules,
// and both bonus configurations, every cell whose 32-bit cost stays below
// Sat16Ceiling must be bit-identical (cost and run) in the 16-bit kernel,
// and every cell at or above the ceiling in 32-bit must also sit at or
// above it in 16-bit — divergence is confined to the saturated band, far
// above every legal threshold, so it can never reach a verdict.
func TestRow16CellIdentityBelowCeiling(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint16, matching bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%900 + 1
		m := int(mRaw)%300 + 1
		var query []int8
		ref := make([]int8, m)
		for i := range ref {
			ref[i] = int8(rng.Intn(255) - 127)
		}
		if matching {
			query = randRead(rng, ref, n)
		} else {
			query = make([]int8, n)
			for i := range query {
				query[i] = int8(rng.Intn(255) - 127)
			}
		}
		cfg := IntConfig{}
		if rng.Intn(2) == 0 {
			cfg = DefaultIntConfig()
		}

		r32 := NewRow(m)
		r16 := NewRow16(m)
		for _, c := range randChunks(rng, n) {
			chunk := query[:c]
			query = query[c:]
			want := Extend(r32, chunk, ref, cfg)
			got := Extend16(r16, chunk, ref, cfg)
			for j := 0; j < m; j++ {
				c32, c16 := r32.Cost[j], int32(r16.Cost[j])
				if c32 < Sat16Ceiling {
					if c16 != c32 || int32(r16.Run[j]) != r32.Run[j] {
						t.Logf("column %d: below ceiling but 16-bit (%d,%d) != 32-bit (%d,%d)",
							j, c16, r16.Run[j], c32, r32.Run[j])
						return false
					}
				} else if c16 < Sat16Ceiling {
					t.Logf("column %d: 32-bit saturated at %d but 16-bit fell to %d", j, c32, c16)
					return false
				}
			}
			if want.Cost < Sat16Ceiling {
				if got != want {
					t.Logf("best below ceiling: 16-bit %+v != 32-bit %+v", got, want)
					return false
				}
			} else if got.Cost < Sat16Ceiling {
				t.Logf("saturated best: 32-bit %d but 16-bit fell to %d", want.Cost, got.Cost)
				return false
			}
			if r16.Samples != r32.Samples {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
