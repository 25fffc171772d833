package sdtw

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func randShardInputs(rng *rand.Rand, n, m int) (query, ref []int8) {
	query = make([]int8, n)
	ref = make([]int8, m)
	for i := range query {
		query[i] = int8(rng.Intn(255) - 127)
	}
	for i := range ref {
		ref[i] = int8(rng.Intn(255) - 127)
	}
	return query, ref
}

// randChunks cuts n samples into random-length chunks (including 1-sample
// chunks), covering the streamed multi-extension schedules a Session
// drives.
func randChunks(rng *rand.Rand, n int) []int {
	var chunks []int
	for n > 0 {
		c := 1 + rng.Intn(n)
		if rng.Intn(3) == 0 {
			c = 1
		}
		if c > n {
			c = n
		}
		chunks = append(chunks, c)
		n -= c
	}
	return chunks
}

// TestShardedRowMatchesExtend is the sharding acceptance property: over
// random references, shard widths (including width 1 and width >= refLen),
// and random chunkings, the serial sharded extension must leave the
// backing row bit-identical to the unsharded kernel and report the same
// best cost and end position — after every chunk, not just at the end.
func TestShardedRowMatchesExtend(t *testing.T) {
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

		plain := NewRow(m)
		sharded := NewShardedRow(m, width)
		for _, c := range randChunks(rng, n) {
			chunk := query[:c]
			query = query[c:]
			want := Extend(plain, chunk, ref, cfg)
			got := sharded.Extend(chunk, ref, cfg)
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

// TestExtendShardHaloChaining drives ExtendShard by hand — independent
// shard order within each chunk does not matter as long as every shard
// sees its left neighbour's halo for that chunk. Extending right-to-left
// per chunk using saved halos must still match the unsharded kernel,
// which is what licenses the engine's out-of-order wavefront scheduling.
func TestExtendShardHaloChaining(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n, m, width = 120, 173, 41
	query, ref := randShardInputs(rng, n, m)
	cfg := DefaultIntConfig()

	plain := NewRow(m)
	sr := NewShardedRow(m, width)
	S := sr.NumShards()
	remaining := query
	for _, c := range randChunks(rng, n) {
		chunk := remaining[:c]
		remaining = remaining[c:]
		want := Extend(plain, chunk, ref, cfg)

		// Pass 1, left-to-right on scratch clones: compute every boundary's
		// halo trace without mutating the shards. Pass 2, right-to-left on
		// the real shards from the saved traces: the order inversion proves
		// a shard's extension depends on nothing but its own state and its
		// left halo.
		halos := make([]*Halo, S-1)
		for k := range halos {
			halos[k] = NewHalo(len(chunk))
		}
		results := make([]IntResult, S)
		var in *Halo
		for k := 0; k < S; k++ {
			lo, hi := sr.Bounds(k)
			var out *Halo
			if k < S-1 {
				out = halos[k]
			}
			results[k] = ExtendShard(sr.Shard(k).Clone(), chunk, ref[lo:hi], cfg, in, out)
			in = out
		}
		for k := S - 1; k >= 0; k-- {
			lo, hi := sr.Bounds(k)
			var inHalo *Halo
			if k > 0 {
				inHalo = halos[k-1]
			}
			if r := ExtendShard(sr.Shard(k), chunk, ref[lo:hi], cfg, inHalo, nil); r != results[k] {
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

func TestShardWidthDegenerate(t *testing.T) {
	if w := ShardWidth(0, 4); w != 0 {
		t.Errorf("ShardWidth(0, 4) = %d, want 0", w)
	}
	if w := ShardWidth(-3, 2); w != 0 {
		t.Errorf("ShardWidth(-3, 2) = %d, want 0", w)
	}
	if w := ShardWidth(10, 0); w != 10 {
		t.Errorf("ShardWidth(10, 0) = %d, want 10", w)
	}
}

func TestShardRowGeometry(t *testing.T) {
	for _, tc := range []struct {
		m, width   int
		wantShards int
	}{
		{10, 3, 4}, {10, 1, 10}, {10, 10, 1}, {10, 25, 1}, {10, 0, 1}, {7, 2, 4},
	} {
		m, width := tc.m, tc.width
		sr := ShardRow(NewRow(m), width)
		if sr.NumShards() != tc.wantShards {
			t.Errorf("m=%d width=%d: %d shards, want %d", m, width, sr.NumShards(), tc.wantShards)
		}
		total := 0
		for k := 0; k < sr.NumShards(); k++ {
			lo, hi := sr.Bounds(k)
			if hi <= lo {
				t.Errorf("m=%d width=%d: empty shard %d", m, width, k)
			}
			if sr.Shard(k).Len() != hi-lo {
				t.Errorf("m=%d width=%d: shard %d view length %d != %d", m, width, k, sr.Shard(k).Len(), hi-lo)
			}
			total += hi - lo
		}
		if total != m {
			t.Errorf("m=%d width=%d: shards cover %d columns", m, width, total)
		}
	}
}

func TestShardedRowAliasesBackingRow(t *testing.T) {
	sr := ShardRow(NewRow(20), 6)
	sr.Row().Cost[7] = 42
	k := 7 / 6
	lo, _ := sr.Bounds(k)
	if sr.Shard(k).Cost[7-lo] != 42 {
		t.Fatal("shard view does not alias the backing row")
	}
	sr.Row().Reset()
	if sr.Shard(k).Cost[7-lo] != 0 {
		t.Fatal("Reset not visible through shard view")
	}
}

func TestExtendShardValidation(t *testing.T) {
	shard := NewRow(3)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("length mismatch", func() {
		ExtendShard(shard, []int8{1}, []int8{1, 2}, IntConfig{}, nil, nil)
	})
	mustPanic("shallow halo", func() {
		ExtendShard(shard, []int8{1, 2}, []int8{1, 2, 3}, IntConfig{}, NewHalo(1), nil)
	})
	mustPanic("empty row", func() { ShardRow(NewRow(0), 1) })
}

// reportCellMetrics emits the kernel benchmark's two named metrics — DP
// cell updates per second and the effective DP-row bandwidth those
// updates move (loads of cost+run+reference plus stores of cost+run, 17
// bytes per cell) — so the CI bench ratchet (cmd/benchdiff) parses one
// stable key across shard widths.
func reportCellMetrics(b *testing.B, n, m int) {
	const cellBytes = 4 + 4 + 1 + 4 + 4
	b.Helper()
	cells := float64(OpCount(n, m)) * float64(b.N)
	perSec := cells / b.Elapsed().Seconds()
	b.ReportMetric(perSec, "cells/sec")
	b.ReportMetric(perSec*cellBytes/1e9, "GB/s")
}

// BenchmarkRowReset pins the per-read cost of row reuse — Reset sits on
// the engine's sync.Pool hot path, once per session — and doubles as the
// machine's memclr bandwidth ceiling for the roofline table, reported as
// the same named GB/s metric the kernel benchmarks emit. The reference
// length is the SARS-CoV-2 both-strand squiggle.
func BenchmarkRowReset(b *testing.B) {
	row := NewRow(59796)
	bytes := int64(row.Len()) * 8 // 4 bytes cost + 4 bytes run
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row.Reset()
	}
	b.StopTimer()
	b.ReportMetric(float64(bytes)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
}

// BenchmarkExtendShard measures the blocked kernel: a 2,000-sample chunk
// (the paper's default stage) against a SARS-CoV-2-scale reference,
// unsharded versus cache-blocked at several shard widths. The long case
// repeats the comparison on a ~500k-column reference, whose 4 MB row no
// longer fits L2 — the regime the serial blocked path exists for. The
// short case is one 1,590-column row, an 800-base cascade target's
// both-strand reference: there every row is a single strip call, so it
// is the case that shows a per-call cost. The cells/sec metric is DP
// cell updates per second; GB/s is the DP-row traffic those updates
// imply at the kernel's bytes/cell.
func BenchmarkExtendShard(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n, m, longM, shortM = 2000, 59796, 499960, 1590
	cfg := DefaultIntConfig()
	bench := func(b *testing.B, query, ref []int8, width int) {
		b.Helper()
		sr := NewShardedRow(len(ref), width)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sr.Extend(query, ref, cfg)
		}
		b.StopTimer()
		reportCellMetrics(b, len(query), len(ref))
	}
	query, ref := randShardInputs(rng, n, m)
	b.Run("unsharded", func(b *testing.B) { bench(b, query, ref, m) })
	for _, width := range []int{4096, 8192, 16384} {
		b.Run("width="+strconv.Itoa(width), func(b *testing.B) { bench(b, query, ref, width) })
	}
	b.Run("long", func(b *testing.B) {
		query, ref := randShardInputs(rand.New(rand.NewSource(7)), n, longM)
		b.Run("unsharded", func(b *testing.B) { bench(b, query, ref, longM) })
		b.Run("width=65536", func(b *testing.B) { bench(b, query, ref, 65536) })
	})
	b.Run("short", func(b *testing.B) {
		query, ref := randShardInputs(rand.New(rand.NewSource(7)), n, shortM)
		bench(b, query, ref, shortM)
	})
}
