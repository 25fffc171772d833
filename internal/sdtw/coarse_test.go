package sdtw

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestCoarseScorerMatchesIntDP16: Score over the shared scratch row is
// bit-identical to a fresh single-shot IntDP16 per reference, in any call
// order — the scratch reuse must not leak state between references.
func TestCoarseScorerMatchesIntDP16(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	refs := make([][]int8, 6)
	for i := range refs {
		r := make([]int8, 40+rng.Intn(200))
		for j := range r {
			r[j] = int8(rng.Intn(256) - 128)
		}
		refs[i] = r
	}
	cfg := DefaultIntConfig()
	cs, err := NewCoarseScorer(refs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	query := make([]int8, 300)
	for j := range query {
		query[j] = int8(rng.Intn(256) - 128)
	}
	// Score twice in different orders; both passes must match the fresh DP.
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < len(refs); k++ {
			i := k
			if pass == 1 {
				i = len(refs) - 1 - k
			}
			got := cs.Score(query, i)
			want := IntDP16(query, refs[i], cfg)
			if got != want {
				t.Fatalf("pass %d ref %d: Score = %+v, want %+v", pass, i, got, want)
			}
		}
	}
}

// TestCoarseScoreBoundedIsScore pins the deprecated ScoreBounded shim
// that external per-layer replays still call: whatever the cut, it is
// Score with Pruned false and every query sample counted.
func TestCoarseScoreBoundedIsScore(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	refs := make([][]int8, 4)
	for i := range refs {
		r := make([]int8, 1+rng.Intn(150))
		for j := range r {
			r[j] = int8(rng.Intn(256) - 128)
		}
		refs[i] = r
	}
	cs, err := NewCoarseScorer(refs, DefaultIntConfig())
	if err != nil {
		t.Fatal(err)
	}
	var zero, huge atomic.Int64
	huge.Store(math.MaxInt64)
	for _, qlen := range []int{0, 1, 90} {
		query := make([]int8, qlen)
		for j := range query {
			query[j] = int8(rng.Intn(256) - 128)
		}
		for i := range refs {
			want := cs.Score(query, i)
			for name, cut := range map[string]*atomic.Int64{"nil": nil, "zero": &zero, "MaxInt64": &huge} {
				got := cs.ScoreBounded(query, i, cut)
				if got.IntResult != want || got.Pruned || got.Samples != qlen {
					t.Fatalf("qlen %d ref %d cut %s: ScoreBounded = %+v, want %+v unpruned with %d samples",
						qlen, i, name, got, want, qlen)
				}
			}
		}
	}
}

// TestCoarseScorerRejectsEmpty pins the constructor's validation.
func TestCoarseScorerRejectsEmpty(t *testing.T) {
	if _, err := NewCoarseScorer(nil, DefaultIntConfig()); err == nil {
		t.Fatal("no error for empty panel")
	}
	if _, err := NewCoarseScorer([][]int8{{1, 2}, {}}, DefaultIntConfig()); err == nil {
		t.Fatal("no error for empty reference")
	}
}
