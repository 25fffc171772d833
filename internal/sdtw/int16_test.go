package sdtw

import (
	"math/rand"
	"strconv"
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

// stageDecisions runs one read through a stage schedule with a caller-
// provided extend step, replicating Filter.Classify's decision logic, and
// returns the per-stage decisions (stopping at the first non-Continue).
func stageDecisions(query []int8, stages []Stage, extend func(chunk []int8) IntResult) []Decision {
	var out []Decision
	consumed := 0
	for si, stage := range stages {
		end := stage.PrefixSamples
		last := si == len(stages)-1
		if end >= len(query) {
			end = len(query)
			last = true
		}
		if end <= consumed {
			break
		}
		res := extend(query[consumed:end])
		consumed = end
		var d Decision
		switch {
		case res.Cost > stage.Threshold:
			d = Reject
		case last:
			d = Accept
		default:
			d = Continue
		}
		out = append(out, d)
		if d != Continue {
			break
		}
	}
	return out
}

// TestInt16SaturationNeverFlipsVerdict is the verdict-level saturation
// property: over random reads (matching and non-matching), references and
// stage schedules whose thresholds all sit below the saturation bound, the
// 16-bit kernel's stage decisions are identical to the 32-bit kernel's —
// saturation never flips an Accept, a Reject or a Continue.
func TestInt16SaturationNeverFlipsVerdict(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint16, matching bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%900 + 50
		m := int(mRaw)%300 + 20
		ref := make([]int8, m)
		for i := range ref {
			ref[i] = int8(rng.Intn(255) - 127)
		}
		var query []int8
		if matching {
			query = randRead(rng, ref, n)
		} else {
			query = make([]int8, n)
			for i := range query {
				query[i] = int8(rng.Intn(255) - 127)
			}
		}
		cfg := DefaultIntConfig()

		// Random staged schedule: increasing prefixes inside the read,
		// thresholds spread from aggressive to permissive but always below
		// the saturation bound.
		nStages := 1 + rng.Intn(3)
		stages := make([]Stage, nStages)
		prefix := 0
		for i := range stages {
			prefix += 1 + rng.Intn(n/nStages+1)
			thr := int32(rng.Intn(12)+1) * int32(prefix)
			if thr > Sat16MaxThreshold {
				thr = Sat16MaxThreshold
			}
			stages[i] = Stage{PrefixSamples: prefix, Threshold: thr}
		}
		if err := ValidateStages16(stages); err != nil {
			t.Logf("schedule rejected: %v", err)
			return false
		}

		r32 := NewRow(m)
		r16 := NewRow16(m)
		d32 := stageDecisions(query, stages, func(chunk []int8) IntResult {
			return Extend(r32, chunk, ref, cfg)
		})
		d16 := stageDecisions(query, stages, func(chunk []int8) IntResult {
			return Extend16(r16, chunk, ref, cfg)
		})
		if len(d32) != len(d16) {
			t.Logf("stage counts differ: 32-bit %v, 16-bit %v", d32, d16)
			return false
		}
		for i := range d32 {
			if d32[i] != d16[i] {
				t.Logf("stage %d: 32-bit %v, 16-bit %v", i, d32[i], d16[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSharded16MatchesUnsharded16 is the 16-bit sharding acceptance
// property: the serial blocked 16-bit extension must leave the backing row
// bit-identical to the unsharded 16-bit kernel and report the same result,
// after every chunk — the exact mirror of TestShardedRowMatchesExtend.
func TestSharded16MatchesUnsharded16(t *testing.T) {
	f := func(seed int64, nRaw, mRaw, wRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%240 + 1
		m := int(mRaw)%300 + 1
		widths := []int{1, int(wRaw)%(m+40) + 1, m, m + 17}
		width := widths[rng.Intn(len(widths))]
		query, ref := randShardInputs(rng, n, m)
		cfg := IntConfig{}
		if rng.Intn(2) == 0 {
			cfg = DefaultIntConfig()
		}

		plain := NewRow16(m)
		sharded := ShardRow(NewRow16(m), width)
		for _, c := range randChunks(rng, n) {
			chunk := query[:c]
			query = query[c:]
			want := Extend16(plain, chunk, ref, cfg)
			got := sharded.Extend(chunk, ref, cfg, ExtendShard16)
			if got != want {
				t.Logf("width %d: sharded %+v != plain %+v", width, got, want)
				return false
			}
			back := sharded.Row()
			if back.Samples != plain.Samples {
				t.Logf("width %d: samples %d != %d", width, back.Samples, plain.Samples)
				return false
			}
			for j := 0; j < m; j++ {
				if back.Cost[j] != plain.Cost[j] || back.Run[j] != plain.Run[j] {
					t.Logf("width %d: row diverged at column %d", width, j)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestExtendShard16HaloChaining mirrors TestExtendShardHaloChaining for
// the packed kernel: replaying shards right-to-left from saved Halo16
// traces must match the unsharded 16-bit kernel, licensing the engine's
// out-of-order 16-bit wavefront.
func TestExtendShard16HaloChaining(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n, m, width = 120, 173, 41
	query, ref := randShardInputs(rng, n, m)
	cfg := DefaultIntConfig()

	plain := NewRow16(m)
	sr := ShardRow(NewRow16(m), width)
	S := sr.NumShards()
	remaining := query
	for _, c := range randChunks(rng, n) {
		chunk := remaining[:c]
		remaining = remaining[c:]
		want := Extend16(plain, chunk, ref, cfg)

		halos := make([]*Halo16, S-1)
		for k := range halos {
			halos[k] = new(Halo16) // ExtendShard16 sizes its output halo
		}
		results := make([]IntResult, S)
		var in *Halo16
		for k := 0; k < S; k++ {
			lo, hi := sr.Bounds(k)
			var out *Halo16
			if k < S-1 {
				out = halos[k]
			}
			results[k] = ExtendShard16(sr.Shard(k).Clone(), chunk, ref[lo:hi], cfg, in, out)
			in = out
		}
		for k := S - 1; k >= 0; k-- {
			lo, hi := sr.Bounds(k)
			var inHalo *Halo16
			if k > 0 {
				inHalo = halos[k-1]
			}
			if r := ExtendShard16(sr.Shard(k), chunk, ref[lo:hi], cfg, inHalo, nil); r != results[k] {
				t.Fatalf("shard %d: reverse-order replay %+v != trace pass %+v", k, r, results[k])
			}
		}
		best := IntResult{EndPos: -1}
		for k := 0; k < S; k++ {
			lo, _ := sr.Bounds(k)
			best = MergeShardResult(best, results[k], lo)
		}
		if best != want {
			t.Fatalf("out-of-order sharded %+v != plain %+v", best, want)
		}
		for j := 0; j < m; j++ {
			if sr.Row().Cost[j] != plain.Cost[j] || sr.Row().Run[j] != plain.Run[j] {
				t.Fatalf("row diverged at column %d", j)
			}
		}
		sr.Row().Samples += c
	}
}

func TestValidateStages16(t *testing.T) {
	good := []Stage{{PrefixSamples: 2000, Threshold: 6000}}
	if err := ValidateStages16(good); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	hot := []Stage{{PrefixSamples: 2000, Threshold: Sat16MaxThreshold + 1}}
	if err := ValidateStages16(hot); err == nil {
		t.Error("threshold above the saturation bound accepted")
	}
	if err := ValidateStages16(nil); err == nil {
		t.Error("empty schedule accepted")
	}
}

// BenchmarkExtendShard16 is BenchmarkExtendShard for the packed kernel:
// the same chunk and reference geometry, so the two kernels' cells/sec and
// effective row bandwidth compare directly (EXPERIMENTS.md roofline).
func BenchmarkExtendShard16(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n, m = 2000, 59796
	query, ref := randShardInputs(rng, n, m)
	cfg := DefaultIntConfig()
	bench := func(b *testing.B, width int) {
		b.Helper()
		sr := ShardRow(NewRow16(m), width)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sr.Extend(query, ref, cfg, ExtendShard16)
		}
		b.StopTimer()
		reportCellMetrics(b, n, m, row16CellBytes)
	}
	b.Run("unsharded", func(b *testing.B) { bench(b, m) })
	for _, width := range []int{4096, 8192, 16384} {
		b.Run("width="+strconv.Itoa(width), func(b *testing.B) { bench(b, width) })
	}
}
