package sdtw

import (
	"math/rand"
	"testing"

	"squigglefilter/internal/genome"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/squiggle"
)

func TestNewFilterValidation(t *testing.T) {
	ref := []int8{1, 2, 3}
	cases := []struct {
		name   string
		ref    []int8
		stages []Stage
	}{
		{"empty ref", nil, []Stage{{PrefixSamples: 100, Threshold: 1}}},
		{"no stages", ref, nil},
		{"zero prefix", ref, []Stage{{PrefixSamples: 0, Threshold: 1}}},
		{"non-increasing", ref, []Stage{{PrefixSamples: 200, Threshold: 1}, {PrefixSamples: 200, Threshold: 1}}},
	}
	for _, tc := range cases {
		if _, err := NewFilter(tc.ref, DefaultIntConfig(), tc.stages); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := NewFilter(ref, DefaultIntConfig(), []Stage{{PrefixSamples: 10, Threshold: 5}}); err != nil {
		t.Errorf("valid filter rejected: %v", err)
	}
}

// filterFixture builds a lambda-like reference filter plus matching and
// non-matching reads. Uses a short genome to keep the DP fast.
type filterFixture struct {
	filter *Filter
	target *squiggle.Read
	host   *squiggle.Read
}

func newFixture(t *testing.T, stages []Stage) *filterFixture {
	t.Helper()
	model := pore.DefaultModel()
	g := &genome.Genome{Name: "target", Seq: genome.Random(rand.New(rand.NewSource(100)), 4000)}
	hostG := &genome.Genome{Name: "host", Seq: genome.Random(rand.New(rand.NewSource(101)), 40000)}
	ref := model.BuildReference(g)
	f, err := NewFilter(ref.Int8, DefaultIntConfig(), stages)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := squiggle.NewSimulator(model, squiggle.DefaultConfig(), 102)
	if err != nil {
		t.Fatal(err)
	}
	tr := sim.ReadFrom(g, 500, 900, false)
	tr.Target = true
	hr := sim.ReadFrom(hostG, 5000, 900, false)
	return &filterFixture{filter: f, target: tr, host: hr}
}

func TestFilterSeparatesTargetFromHost(t *testing.T) {
	fx := newFixture(t, []Stage{{PrefixSamples: 2000, Threshold: 0}})
	tc := fx.filter.CostAt(fx.target.Samples, 2000)
	hc := fx.filter.CostAt(fx.host.Samples, 2000)
	if tc.Cost >= hc.Cost {
		t.Errorf("target cost %d not below host cost %d", tc.Cost, hc.Cost)
	}
	// The gap should be decisive, not marginal: at 2,000 samples the
	// paper's distributions are well separated (Figure 11).
	if hc.Cost-tc.Cost < (hc.Cost-0)/10 {
		t.Errorf("separation too small: target %d, host %d", tc.Cost, hc.Cost)
	}
}

func TestFilterEndPosLocatesRead(t *testing.T) {
	fx := newFixture(t, []Stage{{PrefixSamples: 2000, Threshold: 0}})
	res := fx.filter.CostAt(fx.target.Samples, 2000)
	// Read starts at genome position 500, forward strand; 2,000 samples
	// ≈ 200 bases, so the alignment should end near position 700.
	if res.EndPos < 550 || res.EndPos > 900 {
		t.Errorf("EndPos %d, want ~700 (read planted at 500..)", res.EndPos)
	}
}

func TestFilterClassifyAcceptReject(t *testing.T) {
	fx := newFixture(t, []Stage{{PrefixSamples: 2000, Threshold: 0}})
	tc := fx.filter.CostAt(fx.target.Samples, 2000).Cost
	hc := fx.filter.CostAt(fx.host.Samples, 2000).Cost
	mid := (tc + hc) / 2
	f, err := NewFilter(fx.filter.ref, DefaultIntConfig(), []Stage{{PrefixSamples: 2000, Threshold: mid}})
	if err != nil {
		t.Fatal(err)
	}
	if v := f.Classify(fx.target.Samples); v.Decision != Accept {
		t.Errorf("target read: %v (cost %d, threshold %d)", v.Decision, v.Cost(), mid)
	}
	if v := f.Classify(fx.host.Samples); v.Decision != Reject {
		t.Errorf("host read: %v (cost %d, threshold %d)", v.Decision, v.Cost(), mid)
	}
}

func TestFilterClassifySamplesUsed(t *testing.T) {
	fx := newFixture(t, []Stage{{PrefixSamples: 2000, Threshold: 1 << 30}})
	v := fx.filter.Classify(fx.target.Samples)
	if v.SamplesUsed != 2000 {
		t.Errorf("SamplesUsed = %d, want 2000", v.SamplesUsed)
	}
	if len(v.PerStage) != 1 || v.PerStage[0].Decision != Accept {
		t.Errorf("per-stage = %+v", v.PerStage)
	}
}

func TestFilterMultiStageEarlyReject(t *testing.T) {
	// Stage 1 with an impossible threshold rejects everything after
	// 1,000 samples; stage 2 must never run.
	fx := newFixture(t, []Stage{
		{PrefixSamples: 1000, Threshold: -1 << 30},
		{PrefixSamples: 5000, Threshold: 1 << 30},
	})
	v := fx.filter.Classify(fx.host.Samples)
	if v.Decision != Reject {
		t.Fatalf("decision %v, want reject", v.Decision)
	}
	if v.SamplesUsed != 1000 {
		t.Errorf("SamplesUsed = %d, want 1000 (early stage)", v.SamplesUsed)
	}
	if len(v.PerStage) != 1 {
		t.Errorf("stages evaluated = %d, want 1", len(v.PerStage))
	}
}

func TestFilterMultiStageContinueThenAccept(t *testing.T) {
	// Stage 1 threshold is permissive (continue), stage 2 decides.
	fx := newFixture(t, []Stage{
		{PrefixSamples: 1000, Threshold: 1 << 30},
		{PrefixSamples: 3000, Threshold: 1 << 30},
	})
	v := fx.filter.Classify(fx.target.Samples)
	if v.Decision != Accept {
		t.Fatalf("decision %v, want accept", v.Decision)
	}
	if len(v.PerStage) != 2 {
		t.Fatalf("stages evaluated = %d, want 2", len(v.PerStage))
	}
	if v.PerStage[0].Decision != Continue {
		t.Errorf("stage 0 decision %v, want continue", v.PerStage[0].Decision)
	}
	if v.SamplesUsed != 3000 {
		t.Errorf("SamplesUsed = %d, want 3000", v.SamplesUsed)
	}
}

func TestFilterShortReadDecidedAtEnd(t *testing.T) {
	fx := newFixture(t, []Stage{{PrefixSamples: 1 << 20, Threshold: 1 << 30}})
	v := fx.filter.Classify(fx.target.Samples)
	if v.Decision != Accept {
		t.Errorf("short read decision %v, want accept at read end", v.Decision)
	}
	if v.SamplesUsed != len(fx.target.Samples) {
		t.Errorf("SamplesUsed = %d, want full read %d", v.SamplesUsed, len(fx.target.Samples))
	}
}

func TestFilterCostAtClampsPrefix(t *testing.T) {
	fx := newFixture(t, []Stage{{PrefixSamples: 2000, Threshold: 0}})
	full := fx.filter.CostAt(fx.target.Samples, 1<<30)
	exact := fx.filter.CostAt(fx.target.Samples, len(fx.target.Samples))
	if full.Cost != exact.Cost {
		t.Errorf("clamped prefix cost %d != exact %d", full.Cost, exact.Cost)
	}
}

func TestDecisionString(t *testing.T) {
	if Continue.String() != "continue" || Accept.String() != "accept" || Reject.String() != "reject" {
		t.Error("decision names wrong")
	}
	if Decision(42).String() == "" {
		t.Error("unknown decision should render")
	}
}

func BenchmarkClassify2000(b *testing.B) {
	model := pore.DefaultModel()
	g := &genome.Genome{Name: "t", Seq: genome.Random(rand.New(rand.NewSource(200)), 30000)}
	ref := model.BuildReference(g)
	f, err := NewFilter(ref.Int8, DefaultIntConfig(), []Stage{{PrefixSamples: 2000, Threshold: 0}})
	if err != nil {
		b.Fatal(err)
	}
	sim, _ := squiggle.NewSimulator(model, squiggle.DefaultConfig(), 201)
	r := sim.ReadFrom(g, 1000, 900, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Classify(r.Samples)
	}
}
