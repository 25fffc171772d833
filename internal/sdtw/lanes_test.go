package sdtw

import (
	"math"
	"math/rand"
	"testing"
)

// checkLanes scores query against every lane group of a panel over refs
// and requires each lane's result to equal the scalar Score of its
// reference — cost and end position — and ScoreGroup to scatter the costs
// to their panel indices. It returns how many groups ran the strip.
func checkLanes(t *testing.T, name string, refs [][]int8, query []int8, cfg IntConfig) int {
	t.Helper()
	cl, err := NewCoarseLanes(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs := cl.NewScorer()
	costs := make([]int32, len(refs))
	stripped := 0
	for g := 0; g < cl.NumGroups(); g++ {
		if cl.Strip(g, len(query)) {
			stripped++
		}
		got := cs.scoreGroup(query, g)
		for k, i := range cl.members(g) {
			if want := cs.Score(query, i); got[k] != want {
				t.Fatalf("%s: group %d lane %d (ref %d, len %d, qlen %d, strip %v): lane result %+v, Score %+v",
					name, g, k, i, len(refs[i]), len(query), cl.Strip(g, len(query)), got[k], want)
			}
		}
		cs.ScoreGroup(query, g, costs)
	}
	for i := range refs {
		if want := cs.Score(query, i).Cost; costs[i] != want {
			t.Fatalf("%s: ScoreGroup stored cost %d for ref %d, Score gives %d", name, costs[i], i, want)
		}
	}
	return stripped
}

func randInt8s(rng *rand.Rand, n int, extremes bool) []int8 {
	out := make([]int8, n)
	for i := range out {
		if extremes {
			out[i] = [2]int8{-128, 127}[rng.Intn(2)]
		} else {
			out[i] = int8(rng.Intn(256) - 128)
		}
	}
	return out
}

// TestCoarseLanesIdentity: the lane-group kernel is bit-identical to the
// scalar Score for every reference — across group sizes 1–16 and partial
// tail groups, unequal lane lengths, int8 extremes, degenerate bonus
// settings, and queries on both sides of the floor guard. On a host with
// the AVX2 strip it also requires the strip to have run wherever the
// guard admits the query, so the comparison is never scalar against
// scalar by accident.
func TestCoarseLanesIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	def := DefaultIntConfig()
	expectStrip := func(name string, got, want int) {
		t.Helper()
		if haveAVX2 && got != want {
			t.Fatalf("%s: strip ran on %d groups, want %d", name, got, want)
		}
		if !haveAVX2 && got != 0 {
			t.Fatalf("%s: strip ran on %d groups without AVX2", name, got)
		}
	}

	// Panel sizes 1..40: one partial group, one full, then a full group
	// plus a partial tail, with unequal lengths 1–70 inside each group.
	for n := 1; n <= 40; n++ {
		refs := make([][]int8, n)
		for i := range refs {
			refs[i] = randInt8s(rng, 1+rng.Intn(70), false)
		}
		query := randInt8s(rng, 1+rng.Intn(120), false)
		groups := (n + laneWidth - 1) / laneWidth
		expectStrip("sizes", checkLanes(t, "sizes", refs, query, def), groups)
	}

	// Lane lengths 1..16 in one group, so every lane pads differently.
	refs := make([][]int8, laneWidth)
	for i := range refs {
		refs[i] = randInt8s(rng, i+1, false)
	}
	for _, qlen := range []int{0, 1, 2, 17, 90} {
		expectStrip("ragged", checkLanes(t, "ragged", refs, randInt8s(rng, qlen, false), def), 1)
	}

	// int8 extremes: maximal distances, costs climbing into the ceiling
	// clamp with no bonus to pull them back.
	extreme := make([][]int8, 20)
	for i := range extreme {
		extreme[i] = randInt8s(rng, 1+rng.Intn(70), true)
	}
	for _, cfg := range []IntConfig{def, {MatchBonus: 0, BonusCap: 10}, {MatchBonus: 10, BonusCap: 0}, {MatchBonus: 3, BonusCap: 200}} {
		query := randInt8s(rng, 300, true)
		stripped := checkLanes(t, "extremes", extreme, query, cfg)
		b, c := bonusTerms16(cfg)
		want := 0
		if b*c == 0 || int64(len(query))*int64(b)*int64(c) <= math.MaxInt16 {
			want = 2
		}
		expectStrip("extremes", stripped, want)
	}

	// The floor guard's edge. With BonusCap 1 a diagonal step onto a
	// matching sample earns the whole bonus on every row after the
	// first, so an all-zero panel and query drive the cost to
	// -(qlen-1)·bonus wherever the reference is longer than the query:
	// -MaxInt16 + 367 at the longest query the guard admits for bonus
	// 300. The guard is conservative, so the first query it rejects
	// stays representable and only has to take the scalar path; at twice
	// the limit the cost passes MinInt16, which int16 lanes would wrap.
	flat := make([][]int8, 18)
	for i := range flat {
		flat[i] = make([]int8, 110+rng.Intn(70))
	}
	for _, cfg := range []IntConfig{{MatchBonus: 300, BonusCap: 1}, {MatchBonus: 32767, BonusCap: 1}, {MatchBonus: 300, BonusCap: 10}, def} {
		b, c := bonusTerms16(cfg)
		limit := int(math.MaxInt16 / (int64(b) * int64(c)))
		for _, qlen := range []int{limit, limit + 1, 2 * limit} {
			query := make([]int8, qlen)
			want := 0
			if qlen == limit {
				want = 2
			}
			expectStrip("guard", checkLanes(t, "guard", flat, query, cfg), want)
		}
	}
	cs, err := NewCoarseScorer(flat, IntConfig{MatchBonus: 300, BonusCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.Score(make([]int8, math.MaxInt16/300), 0).Cost; got > -math.MaxInt16+2*300 {
		t.Fatalf("guard-edge query reaches only cost %d; the floor is not exercised", got)
	}

	// Configurations the int16 lanes cannot represent take the scalar
	// path for every query.
	for _, cfg := range []IntConfig{{MatchBonus: -5, BonusCap: 10}, {MatchBonus: 10, BonusCap: -3}, {MatchBonus: math.MaxInt16 + 1, BonusCap: 0}} {
		expectStrip("unrepresentable", checkLanes(t, "unrepresentable", extreme, randInt8s(rng, 40, false), cfg), 0)
	}
}

// TestCoarseLanesLayout pins the panel transform: groups of 16 in
// ascending length order (ties by panel index), real cells excluding
// padding, and every panel index in exactly one lane.
func TestCoarseLanesLayout(t *testing.T) {
	lens := []int{5, 3, 9, 3, 1, 7, 2, 8, 4, 6, 3, 5, 9, 2, 1, 4, 8, 7, 6, 5, 3}
	refs := make([][]int8, len(lens))
	var total int64
	for i, n := range lens {
		refs[i] = make([]int8, n)
		total += int64(n)
	}
	cl, err := NewCoarseLanes(refs, DefaultIntConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.NumGroups(); got != 2 {
		t.Fatalf("%d groups for %d references, want 2", got, len(refs))
	}
	seen := make([]bool, len(refs))
	var cells int64
	for g := 0; g < cl.NumGroups(); g++ {
		cells += cl.GroupCells(g)
	}
	for k, i := range cl.order {
		if seen[i] {
			t.Fatalf("reference %d placed twice", i)
		}
		seen[i] = true
		if k > 0 {
			p := cl.order[k-1]
			if lens[p] > lens[i] || (lens[p] == lens[i] && p > i) {
				t.Fatalf("order %v is not by (length, index)", cl.order)
			}
		}
	}
	if cells != total {
		t.Fatalf("group cells sum to %d, want the panel's %d", cells, total)
	}
	if g := cl.groups[1]; g.lanes != len(refs)-laneWidth || g.cols != 9 {
		t.Fatalf("tail group has %d lanes of up to %d columns, want %d of 9", g.lanes, g.cols, len(refs)-laneWidth)
	}
}

// FuzzCoarseLanes drives the identity from fuzzer-chosen panels: data
// decodes into up to 20 references of 1–70 samples and a query of up to
// 255 samples, scored under the given bonus and cap, so the fuzzer can
// reach any lane mix, padding pattern and side of the floor guard.
func FuzzCoarseLanes(f *testing.F) {
	f.Add(int32(DefaultMatchBonus), int32(DefaultBonusCap), []byte{3, 5, 1, 2, 3, 4, 5, 2, 9, 9, 70, 4, 1, 2, 3, 4})
	f.Add(int32(0), int32(0), []byte{17, 1, 0x80, 2, 0x7f, 0x80, 3, 1, 2, 3, 200})
	f.Add(int32(300), int32(10), []byte{2, 40, 0, 30, 1, 11, 0, 0, 0})
	f.Fuzz(func(t *testing.T, bonus, cap_ int32, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		refs := make([][]int8, 1+int(next())%20)
		for i := range refs {
			refs[i] = make([]int8, 1+int(next())%70)
			for j := range refs[i] {
				refs[i][j] = int8(next())
			}
		}
		query := make([]int8, int(next()))
		for j := range query {
			query[j] = int8(next())
		}
		checkLanes(t, "fuzz", refs, query, IntConfig{MatchBonus: bonus, BonusCap: cap_})
	})
}

// BenchmarkCoarseLanes measures the coarse kernel on one core at the
// cascade's geometry: 1,000 decimated references of 196–200 samples
// against one query per dwell hypothesis (125, 94 and 75 samples). The
// lanes case runs ScoreGroup over every group; the scalar case runs
// Score over every reference. cells/sec counts real cells only.
func BenchmarkCoarseLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(223))
	refs := make([][]int8, 1000)
	var refCells int64
	for i := range refs {
		refs[i] = randInt8s(rng, 196+rng.Intn(5), false)
		refCells += int64(len(refs[i]))
	}
	queries := [][]int8{randInt8s(rng, 125, false), randInt8s(rng, 94, false), randInt8s(rng, 75, false)}
	cl, err := NewCoarseLanes(refs, DefaultIntConfig())
	if err != nil {
		b.Fatal(err)
	}
	cs := cl.NewScorer()
	costs := make([]int32, len(refs))
	cells := int64(0)
	for _, q := range queries {
		cells += int64(len(q)) * refCells
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
	}
	b.Run("lanes", func(b *testing.B) {
		for b.Loop() {
			for _, q := range queries {
				for g := 0; g < cl.NumGroups(); g++ {
					cs.ScoreGroup(q, g, costs)
				}
			}
		}
		report(b)
	})
	b.Run("scalar", func(b *testing.B) {
		for b.Loop() {
			for _, q := range queries {
				for i := range refs {
					costs[i] = cs.Score(q, i).Cost
				}
			}
		}
		report(b)
	})
}
