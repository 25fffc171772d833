package minion

import (
	"math"
	"math/rand"
	"testing"

	"squigglefilter/internal/engine"
	"squigglefilter/internal/genome"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/readuntil"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/squiggle"
)

// livePool builds a fixed-length labelled read pool and an engine
// pipeline programmed for the target, the shared fixture of the
// signal-level tests.
func livePool(t *testing.T) (targets, hosts []*squiggle.Read, pipe *engine.Pipeline, prefixSamples int) {
	t.Helper()
	return livePoolSharded(t, 1)
}

// livePoolSharded is livePool with the pipeline's reference-sharded
// execution path configured (shards > 1).
func livePoolSharded(t *testing.T, shards int) (targets, hosts []*squiggle.Read, pipe *engine.Pipeline, prefixSamples int) {
	t.Helper()
	target := &genome.Genome{Name: "virus", Seq: genome.Random(rand.New(rand.NewSource(61)), 600)}
	host := &genome.Genome{Name: "host", Seq: genome.Random(rand.New(rand.NewSource(62)), 60000)}
	sim, err := squiggle.NewSimulator(pore.DefaultModel(), squiggle.DefaultConfig(), 63)
	if err != nil {
		t.Fatal(err)
	}
	targets, hosts = sim.FixedLengthPair(target, host, 50, 500, 1500)

	ref := pore.DefaultModel().BuildReference(target)
	// 250 samples (~25 bases) at the default 3 cost units/sample is a
	// deliberately weak operating point (the paper decides at 2,000
	// samples) — it keeps the DP per capture small, and the
	// cross-validation is about model agreement at the *measured* TPR/FPR,
	// not about filter quality.
	prefixSamples = 250
	stages := []sdtw.Stage{{PrefixSamples: prefixSamples, Threshold: int32(prefixSamples * 3)}}
	pipe, err = engine.NewPipeline(func() (*engine.Backend, error) {
		return engine.NewSoftware(ref.Int8, sdtw.DefaultIntConfig())
	}, 2, stages)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.SetShards(shards); err != nil {
		t.Fatal(err)
	}
	return targets, hosts, pipe, prefixSamples
}

// TestSessionClassifierShardedParity threads shard configuration through
// the closed loop: a pipeline whose sessions wavefront each read's shards
// across the instance pool must measure exactly the operating point of the
// unsharded pipeline — sharding changes scheduling, never verdicts.
func TestSessionClassifierShardedParity(t *testing.T) {
	targets, hosts, pipe, _ := livePool(t)
	_, _, sharded, _ := livePoolSharded(t, 3)
	pool := append(append([]*squiggle.Read{}, targets...), hosts...)
	tpr, fpr, err := PoolRates(pipe, pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	stpr, sfpr, err := PoolRates(sharded, pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tpr != stpr || fpr != sfpr {
		t.Errorf("sharded operating point (%.4f, %.4f) != unsharded (%.4f, %.4f)", stpr, sfpr, tpr, fpr)
	}
}

// TestLiveSessionsMatchAnalyticalModel is the closed-loop
// cross-validation: a flow cell whose every captured read streams its
// real squiggle through a real incremental Session (ejections are actual
// sDTW threshold crossings applied as discrete events) must reproduce the
// target-yield rate the closed-form readuntil model predicts at the
// classifier's *measured* operating point. Documented tolerance: 15%
// relative — the statistical mode validates at ~6% with far more reads
// (readuntil.TestAnalyticalMatchesDES); the live run is smaller because
// every capture pays real DP.
func TestLiveSessionsMatchAnalyticalModel(t *testing.T) {
	targets, hosts, pipe, prefixSamples := livePool(t)

	tpr, fpr, err := PoolRates(pipe, append(append([]*squiggle.Read{}, targets...), hosts...), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tpr < 0.4 || fpr > 0.6 || fpr >= tpr {
		t.Fatalf("operating point degenerate (TPR %.2f, FPR %.2f); cross-validation needs a discriminating filter", tpr, fpr)
	}

	const viralFraction = 0.15
	cfg := DefaultConfig()
	cfg.Channels = 12
	cfg.BlockRatePerHour = 0
	sim, err := New(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := SessionClassifier(pipe, cfg, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	const duration = 900.0
	res := sim.Run(duration, nil, MixedPoolSource(targets, hosts, viralFraction), cls, 0)
	if res.ReadsEjected == 0 {
		t.Fatal("live mode never ejected a read")
	}

	p := readuntil.Params{
		Channels:       cfg.Channels,
		BasesPerSec:    cfg.BasesPerSec,
		CaptureSec:     cfg.CaptureMeanSec,
		EjectSec:       cfg.EjectSec,
		ViralFraction:  viralFraction,
		ViralReadBases: 500,
		HostReadBases:  1500,
		GenomeLen:      600,
		Coverage:       30,
	}
	c := readuntil.ClassifierModel{
		Name:        "measured-sessions",
		TPR:         tpr,
		FPR:         fpr,
		PrefixBases: float64(prefixSamples) / readuntil.SamplesPerBase,
	}
	measuredRate := float64(res.TargetBases) / duration
	analyticRate := p.Coverage * float64(p.GenomeLen) / p.Runtime(c)
	relErr := math.Abs(measuredRate-analyticRate) / analyticRate
	t.Logf("measured TPR %.3f FPR %.3f; live yield %.1f b/s vs analytical %.1f b/s (%.1f%% apart)",
		tpr, fpr, measuredRate, analyticRate, relErr*100)
	if relErr > 0.15 {
		t.Errorf("live yield rate %.1f b/s vs analytical %.1f b/s: %.1f%% apart (tolerance 15%%)",
			measuredRate, analyticRate, relErr*100)
	}
}

// TestLiveEnrichment: real-session Read Until must beat the
// sequence-everything control on target yield, the paper's core claim
// replayed at signal level.
func TestLiveEnrichment(t *testing.T) {
	targets, hosts, pipe, _ := livePool(t)
	cfg := DefaultConfig()
	cfg.Channels = 8
	cfg.BlockRatePerHour = 0
	src := MixedPoolSource(targets, hosts, 0.05)

	ctl, err := New(cfg, 65)
	if err != nil {
		t.Fatal(err)
	}
	control := ctl.Run(400, nil, src, SequenceAll, 0)

	live, err := New(cfg, 65)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := SessionClassifier(pipe, cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ru := live.Run(400, nil, src, cls, 0)

	if ru.TargetBases <= control.TargetBases {
		t.Errorf("live Read Until target yield %d not above control %d", ru.TargetBases, control.TargetBases)
	}
	if ru.ReadsEjected == 0 {
		t.Error("live Read Until never ejected")
	}
}

// TestSessionClassifierValidation covers the classifier's refusal paths
// and the no-signal fallback.
func TestSessionClassifierValidation(t *testing.T) {
	_, _, pipe, _ := livePool(t)
	cfg := DefaultConfig()
	cfg.SamplesPerBase = 0
	if _, err := SessionClassifier(pipe, cfg, 0, 0); err == nil {
		t.Error("zero SamplesPerBase accepted")
	}
	cfg = DefaultConfig()
	cls, err := SessionClassifier(pipe, cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A plan with no attached signal is sequenced in full.
	if d := cls(rand.New(rand.NewSource(1)), ReadPlan{LengthBases: 1000, Target: false}); d.Eject {
		t.Error("signal-less plan ejected")
	}
}
