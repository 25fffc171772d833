// Closed-loop differential panel: a simulated flow cell sequences a
// mixed specimen (two viruses plus host background) while every captured
// read streams its raw chunks through a PanelSession spanning both
// references at once. Host reads get ejected the moment every target has
// rejected them; viral reads sequence to completion and are attributed to
// the accepting target with the exact lowest per-sample cost. With
// cross-target pruning enabled, targets an accepted leader dominates stop
// consuming DP work mid-read — the programmability argument of the paper
// (one accelerator, any <100kb reference) scaled to N references without
// paying N times the DP.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"squigglefilter/internal/engine"
	"squigglefilter/internal/genome"
	"squigglefilter/internal/minion"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/squiggle"
)

func main() {
	virusA := &genome.Genome{Name: "virus-A", Seq: genome.Random(rand.New(rand.NewSource(91)), 600)}
	virusB := &genome.Genome{Name: "virus-B", Seq: genome.Random(rand.New(rand.NewSource(92)), 2000)}
	host := &genome.Genome{Name: "host", Seq: genome.Random(rand.New(rand.NewSource(93)), 80000)}
	sim, err := squiggle.NewSimulator(pore.DefaultModel(), squiggle.DefaultConfig(), 94)
	if err != nil {
		log.Fatal(err)
	}
	const (
		targetBases = 600
		hostBases   = 3000
		duration    = 1200.0
	)
	poolA, hosts := sim.FixedLengthPair(virusA, host, 40, targetBases, hostBases)
	poolB, _ := sim.FixedLengthPair(virusB, host, 40, targetBases, hostBases)

	// One pipeline per panel target; sessions of both multiplex over two
	// software instances each. Schedules differ per virus — a shared
	// coarse reject stage at 250 samples, then a final look sized to each
	// reference (the per-target tuning the panel exists to allow). The
	// schedule skew is also what cross-target pruning exploits: once the
	// short-schedule target accepts, the long-schedule target's remaining
	// DP is abandoned unless it is still competitive.
	newTarget := func(g *genome.Genome, stages []sdtw.Stage) engine.Target {
		ref := pore.DefaultModel().BuildReference(g)
		p, err := engine.NewPipeline(func() (*engine.Backend, error) {
			return engine.NewSoftware(ref.Int8, sdtw.DefaultIntConfig())
		}, 2, stages)
		if err != nil {
			log.Fatal(err)
		}
		return engine.Target{Name: g.Name, Pipeline: p}
	}
	panel, err := engine.NewPanel([]engine.Target{
		newTarget(virusA, []sdtw.Stage{{PrefixSamples: 250, Threshold: 250 * 3}, {PrefixSamples: 1000, Threshold: 1000 * 3}}),
		newTarget(virusB, []sdtw.Stage{{PrefixSamples: 250, Threshold: 250 * 3}, {PrefixSamples: 2000, Threshold: 2000 * 3}}),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Specimen: 5% of each virus, 90% host.
	src, err := minion.MultiPoolSource([][]*squiggle.Read{poolA, poolB, hosts}, []float64{0.05, 0.05, 0.90})
	if err != nil {
		log.Fatal(err)
	}
	cfg := minion.DefaultConfig()
	cfg.Channels = 8
	cfg.BlockRatePerHour = 0

	run := func(name string, cls minion.Classifier) minion.RunResult {
		s, err := minion.New(cfg, 95)
		if err != nil {
			log.Fatal(err)
		}
		res := s.Run(duration, nil, src, cls, 0)
		fmt.Printf("%-26s target %7d b  total %8d b  full %4d  ejected %4d\n",
			name, res.TargetBases, res.TotalBases, res.ReadsFull, res.ReadsEjected)
		return res
	}

	control := run("control (sequence all)", minion.SequenceAll)
	cls, tally, err := minion.PanelSessionClassifier(panel, cfg, 0, 0, engine.PrunePolicy{Enabled: true})
	if err != nil {
		log.Fatal(err)
	}
	live := run("panel sessions (2 targets)", cls)

	fmt.Printf("\nenrichment over control: %.2fx target bases\n",
		float64(live.TargetBases)/float64(control.TargetBases))
	fmt.Printf("reads: %d ejected (every target rejected mid-read), %d sequenced, %d undecided, %d late all-rejects\n",
		tally.Ejected, tally.Sequenced, tally.Undecided, tally.LateRejects)
	fmt.Printf("differential attribution among panel viruses: %d correct, %d misattributed\n\n",
		tally.Correct, tally.Misattributed)
	fmt.Printf("%-10s %10s %10s %10s %12s\n", "target", "attributed", "rejects", "pruned", "DP samples")
	for i, name := range tally.Targets {
		fmt.Printf("%-10s %10d %10d %10d %12d\n",
			name, tally.Attributed[i], tally.Rejects[i], tally.Pruned[i], tally.DPSamples[i])
	}
	fmt.Println("\nejections here are panel verdicts: a read leaves the pore only when")
	fmt.Println("every reference has rejected it; pruning stops DP for targets an")
	fmt.Println("accepted leader already dominates, so the 2-target panel costs")
	fmt.Println("much less than 2x the single-target DP on unambiguous reads")
}
