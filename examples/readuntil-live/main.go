// Closed-loop Read Until (paper Section 3, Figure 20's experiment shape):
// a simulated flow cell captures reads carrying real squiggles, streams
// each read's raw chunks through an incremental engine Session, and
// applies Reject decisions as discrete ejection events — the classifier
// in the loop is the actual sDTW dynamic programming, not a TPR/FPR coin
// flip. The measured target yield is then cross-checked against the
// statistical simulator at the measured operating point and against the
// closed-form runtime model of internal/readuntil.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"squigglefilter/internal/engine"
	"squigglefilter/internal/genome"
	"squigglefilter/internal/minion"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/readuntil"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/squiggle"
)

func main() {
	// Specimen: a small virus hidden at 10% in host background. Fixed
	// read lengths per class so the analytical model's assumptions hold
	// exactly.
	virus := &genome.Genome{Name: "virus", Seq: genome.Random(rand.New(rand.NewSource(81)), 600)}
	host := &genome.Genome{Name: "host", Seq: genome.Random(rand.New(rand.NewSource(82)), 80000)}
	sim, err := squiggle.NewSimulator(pore.DefaultModel(), squiggle.DefaultConfig(), 83)
	if err != nil {
		log.Fatal(err)
	}
	// Host reads are much longer than viral reads (human fragments vs a
	// small virus), which is exactly where ejecting hosts early pays off.
	const (
		viralFraction = 0.10
		targetBases   = 500
		hostBases     = 4000
		prefixSamples = 250
		duration      = 1800.0
	)
	targets, hosts := sim.FixedLengthPair(virus, host, 50, targetBases, hostBases)

	// The classifier: an engine pipeline whose sessions the flow cell
	// feeds chunk by chunk. Two instances serve all channels — sessions
	// park their DP row between chunk deliveries.
	ref := pore.DefaultModel().BuildReference(virus)
	stages := []sdtw.Stage{{PrefixSamples: prefixSamples, Threshold: prefixSamples * 3}}
	pipe, err := engine.NewPipeline(func() (*engine.Backend, error) {
		return engine.NewSoftware(ref.Int8, sdtw.DefaultIntConfig())
	}, 2, stages)
	if err != nil {
		log.Fatal(err)
	}

	// Measure the operating point by streaming the whole labelled pool
	// through real sessions once.
	pool := append(append([]*squiggle.Read{}, targets...), hosts...)
	tpr, fpr, err := minion.PoolRates(pipe, pool, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured operating point at %d samples: TPR %.2f, FPR %.2f\n\n", prefixSamples, tpr, fpr)

	cfg := minion.DefaultConfig()
	cfg.Channels = 8
	cfg.BlockRatePerHour = 0
	src := minion.MixedPoolSource(targets, hosts, viralFraction)

	run := func(name string, cls minion.Classifier) minion.RunResult {
		s, err := minion.New(cfg, 84)
		if err != nil {
			log.Fatal(err)
		}
		res := s.Run(duration, nil, src, cls, 0)
		fmt.Printf("%-28s target %7d b  total %8d b  full %4d  ejected %4d\n",
			name, res.TargetBases, res.TotalBases, res.ReadsFull, res.ReadsEjected)
		return res
	}

	control := run("control (sequence all)", minion.SequenceAll)
	liveCls, err := minion.SessionClassifier(pipe, cfg, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	live := run("live sessions (real sDTW)", liveCls)
	decisionBases := prefixSamples / readuntil.SamplesPerBase
	run("statistical (TPR/FPR draws)", minion.ThresholdClassifier(tpr, fpr, decisionBases))

	// Closed-form cross-check at the measured operating point.
	p := readuntil.Params{
		Channels:       cfg.Channels,
		BasesPerSec:    cfg.BasesPerSec,
		CaptureSec:     cfg.CaptureMeanSec,
		EjectSec:       cfg.EjectSec,
		ViralFraction:  viralFraction,
		ViralReadBases: targetBases,
		HostReadBases:  hostBases,
		GenomeLen:      virus.Len(),
		Coverage:       30,
	}
	c := readuntil.ClassifierModel{
		Name: "measured-sessions", TPR: tpr, FPR: fpr,
		PrefixBases: float64(prefixSamples) / readuntil.SamplesPerBase,
	}
	analyticRate := p.Coverage * float64(p.GenomeLen) / p.Runtime(c)
	liveRate := float64(live.TargetBases) / duration
	fmt.Printf("\ntarget yield rate:  live %.1f b/s   analytical %.1f b/s   (%.1f%% apart)\n",
		liveRate, analyticRate, 100*abs(liveRate-analyticRate)/analyticRate)
	fmt.Printf("enrichment over control: %.2fx target bases\n",
		float64(live.TargetBases)/float64(control.TargetBases))
	fmt.Printf("time to %.0fx coverage:  Read Until %.0f s   without %.0f s   (%.1fx speedup)\n",
		p.Coverage, p.Runtime(c), p.RuntimeNoRU(), p.Speedup(c))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
