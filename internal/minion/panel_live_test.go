package minion

import (
	"math/rand"
	"testing"

	"squigglefilter/internal/engine"
	"squigglefilter/internal/genome"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/squiggle"
)

// panelPool builds a two-virus + host mixed specimen and an engine Panel
// programmed for both viruses — the differential-panel fixture.
func panelPool(t *testing.T) (pools [][]*squiggle.Read, panel *engine.Panel) {
	t.Helper()
	virusA := &genome.Genome{Name: "virus-A", Seq: genome.Random(rand.New(rand.NewSource(71)), 600)}
	virusB := &genome.Genome{Name: "virus-B", Seq: genome.Random(rand.New(rand.NewSource(72)), 600)}
	host := &genome.Genome{Name: "host", Seq: genome.Random(rand.New(rand.NewSource(73)), 60000)}
	sim, err := squiggle.NewSimulator(pore.DefaultModel(), squiggle.DefaultConfig(), 74)
	if err != nil {
		t.Fatal(err)
	}
	poolA, hosts := sim.FixedLengthPair(virusA, host, 40, 500, 1500)
	poolB, _ := sim.FixedLengthPair(virusB, host, 40, 500, 1500)

	prefix := 250
	stages := []sdtw.Stage{{PrefixSamples: prefix, Threshold: int32(prefix * 3)}}
	newTarget := func(g *genome.Genome) engine.Target {
		ref := pore.DefaultModel().BuildReference(g)
		p, err := engine.NewPipeline(func() (*engine.Backend, error) {
			return engine.NewSoftware(ref.Int8, sdtw.DefaultIntConfig())
		}, 2, stages)
		if err != nil {
			t.Fatal(err)
		}
		return engine.Target{Name: g.Name, Pipeline: p}
	}
	panel, err = engine.NewPanel([]engine.Target{newTarget(virusA), newTarget(virusB)})
	if err != nil {
		t.Fatal(err)
	}
	return [][]*squiggle.Read{poolA, poolB, hosts}, panel
}

// TestLivePanelEnrichment is the mixed-virus closed loop: a flow cell
// whose captures stream through PanelSessions must out-yield the
// sequence-everything control on target bases, eject host reads, and
// attribute kept viral reads to the right panel target more often than
// not.
func TestLivePanelEnrichment(t *testing.T) {
	pools, panel := panelPool(t)
	src, err := MultiPoolSource(pools, []float64{0.05, 0.05, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Channels = 8
	cfg.BlockRatePerHour = 0

	ctl, err := New(cfg, 75)
	if err != nil {
		t.Fatal(err)
	}
	control := ctl.Run(400, nil, src, SequenceAll, 0)

	live, err := New(cfg, 75)
	if err != nil {
		t.Fatal(err)
	}
	cls, tally, err := PanelSessionClassifier(panel, cfg, 0, 0, engine.PrunePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	ru := live.Run(400, nil, src, cls, 0)

	if ru.TargetBases <= control.TargetBases {
		t.Errorf("panel Read Until target yield %d not above control %d", ru.TargetBases, control.TargetBases)
	}
	if tally.Ejected == 0 {
		t.Error("panel classifier never ejected a read")
	}
	var attributed int64
	for i := range tally.Targets {
		attributed += tally.Attributed[i]
		if tally.DPSamples[i] == 0 {
			t.Errorf("target %s consumed no DP samples", tally.Targets[i])
		}
	}
	if attributed == 0 {
		t.Fatal("no read was attributed to any panel target")
	}
	if tally.Correct <= tally.Misattributed {
		t.Errorf("differential attribution: %d correct vs %d misattributed", tally.Correct, tally.Misattributed)
	}
	if tally.Sequenced != attributed {
		t.Errorf("sequenced %d != attributed %d", tally.Sequenced, attributed)
	}
	t.Logf("panel run: %d ejected, %d sequenced (%d correct vs %d misattributed among panel viruses), %d undecided; per-target rejects %v, DP samples %v",
		tally.Ejected, tally.Sequenced, tally.Correct, tally.Misattributed, tally.Undecided, tally.Rejects, tally.DPSamples)
}

// TestPanelClassifierValidation covers the refusal paths and the
// no-signal fallback, mirroring the single-target classifier's contract.
func TestPanelClassifierValidation(t *testing.T) {
	pools, panel := panelPool(t)
	cfg := DefaultConfig()
	cfg.SamplesPerBase = 0
	if _, _, err := PanelSessionClassifier(panel, cfg, 0, 0, engine.PrunePolicy{}); err == nil {
		t.Error("zero SamplesPerBase accepted")
	}
	cfg = DefaultConfig()
	if _, _, err := PanelSessionClassifier(panel, cfg, 0, 0, engine.PrunePolicy{Enabled: true, MarginPerSample: -1}); err == nil {
		t.Error("invalid prune policy accepted")
	}
	cls, tally, err := PanelSessionClassifier(panel, cfg, 0, 0, engine.PrunePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if d := cls(rand.New(rand.NewSource(1)), ReadPlan{LengthBases: 1000}); d.Eject {
		t.Error("signal-less plan ejected")
	}
	if tally.Ejected != 0 || tally.Sequenced != 0 {
		t.Errorf("signal-less plan was tallied: %+v", tally)
	}

	if _, err := MultiPoolSource(nil, nil); err == nil {
		t.Error("empty pools accepted")
	}
	if _, err := MultiPoolSource(pools, []float64{1, 1}); err == nil {
		t.Error("mismatched weights accepted")
	}
	if _, err := MultiPoolSource(pools, []float64{0, 0, 0}); err == nil {
		t.Error("zero weights accepted")
	}
	if _, err := MultiPoolSource(pools, []float64{1, -1, 1}); err == nil {
		t.Error("negative weight accepted")
	}
}
