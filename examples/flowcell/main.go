// The paper's keep-up verdict as a measured table (Sections 6–7): the
// headline hardware claim is not that sDTW is fast in isolation but that
// the ASIC sustains *all 512 MinION channels at ~4 kHz in real time*,
// while the GPU software pipeline falls behind and wastes sequencing on
// late ejections. This example runs the deadline-aware virtual-time flow
// cell per back-end cost model and prints channels-sustained: every
// channel delivers ~0.1 s chunks, each stage decision becomes a deadlined
// task priced by that back-end's service-time model, tasks queue through
// the engine's EDF scheduler, and a Reject only takes effect when its
// task finishes — so decision latency and queueing show up as extra
// sequenced samples before every ejection.
//
// Verdicts are bit-identical across back-ends (the engine's core
// invariant), so one software pipeline computes the DP for every row and
// only the service-time model changes per back-end.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"squigglefilter/internal/engine"
	"squigglefilter/internal/genome"
	"squigglefilter/internal/gpu"
	"squigglefilter/internal/hw"
	"squigglefilter/internal/minion"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/readuntil"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/squiggle"
)

func main() {
	// Specimen: a small virus at 10% in long host background. The genome
	// is kept small so the example's real DP stays cheap; service times
	// are what distinguish the back-ends, and the GPU row uses the
	// paper's *measured* per-chunk envelope, which is genome-independent.
	virus := &genome.Genome{Name: "virus", Seq: genome.Random(rand.New(rand.NewSource(91)), 3000)}
	host := &genome.Genome{Name: "host", Seq: genome.Random(rand.New(rand.NewSource(92)), 80000)}
	sim, err := squiggle.NewSimulator(pore.DefaultModel(), squiggle.DefaultConfig(), 93)
	if err != nil {
		log.Fatal(err)
	}
	const (
		viralFraction = 0.10
		prefixSamples = 2000 // the paper's default decision point
		durationSec   = 60.0
	)
	targets, hosts := sim.FixedLengthPair(virus, host, 16, 2000, 6000)
	src := minion.MixedPoolSource(targets, hosts, viralFraction)

	ref := pore.DefaultModel().BuildReference(virus)
	icfg := sdtw.DefaultIntConfig()
	stages := []sdtw.Stage{{PrefixSamples: prefixSamples, Threshold: prefixSamples * 3}}
	swPipe, err := engine.NewPipeline(func() (*engine.Backend, error) {
		return engine.NewSoftware(ref.Int8, icfg)
	}, 4, stages)
	if err != nil {
		log.Fatal(err)
	}
	// Cost models. hw: exact from the tile cycle ledger at the 2.5 GHz
	// synthesized clock. gpu: the measured Guppy-lite Read Until chunk
	// latency of the paper's software pipeline (Table 3) — per delivered
	// chunk, longer than the 0.1 s chunk period, so a GPU cannot keep up
	// even before queueing. sw: self-calibrated on this host.
	hwPipe, err := engine.NewPipeline(func() (*engine.Backend, error) {
		return engine.NewHardware(ref.Int8, icfg)
	}, 1, stages)
	if err != nil {
		log.Fatal(err)
	}
	titan := gpu.TitanXP()
	backends := []struct {
		name    string
		servers int
		service func(int) time.Duration
	}{
		{"hw (5-tile ASIC)", hw.NumTiles, hwPipe.ServiceTime},
		{"gpu (Titan XP, Guppy-lite RU)", 1, func(int) time.Duration {
			return time.Duration(titan.GuppyLiteLatency * float64(time.Second))
		}},
		{"sw (this host)", swPipe.Workers(), swPipe.ServiceTime},
	}

	fmt.Println("channels-sustained per backend (0.1 s chunk deadline, 60 s simulated):")
	fmt.Printf("%-30s %9s %9s %7s %7s %10s %12s %12s\n",
		"backend", "channels", "verdict", "util", "late%", "p99 lat", "waste smpl", "backlog")
	for _, b := range backends {
		for _, channels := range []int{128, 512} {
			cfg := minion.FlowCellConfig{
				Config:       minion.DefaultConfig(),
				ChunkSamples: minion.DefaultChunkSamples,
				Servers:      b.servers,
				Service:      b.service,
				DurationSec:  durationSec,
				Seed:         11,
			}
			cfg.Channels = channels
			cfg.BlockRatePerHour = 0
			res, err := minion.RunFlowCell(swPipe, cfg, src)
			if err != nil {
				log.Fatal(err)
			}
			verdict := "sustains"
			if !res.Sustained() {
				verdict = "BEHIND"
			}
			fmt.Printf("%-30s %9d %9s %6.1f%% %6.1f%% %9.3gs %12d %12d\n",
				b.name, channels, verdict, 100*res.Utilization, 100*res.LateFraction(),
				res.Latency.P99, res.LateExtraSamples, res.Backlog)
		}
	}

	// Close the loop with the runtime model: the measured latency
	// distribution of the slowest keep-up-capable configuration feeds
	// readuntil.RuntimeMeasured, the same bridge the flow-cell tests
	// cross-validate.
	pool := append(append([]*squiggle.Read{}, targets...), hosts...)
	tpr, fpr, err := minion.PoolRates(swPipe, pool, minion.DefaultChunkSamples)
	if err != nil {
		log.Fatal(err)
	}
	cfg := minion.FlowCellConfig{
		Config:       minion.DefaultConfig(),
		ChunkSamples: minion.DefaultChunkSamples,
		Servers:      hw.NumTiles,
		Service:      hwPipe.ServiceTime,
		DurationSec:  durationSec,
		Seed:         11,
	}
	cfg.BlockRatePerHour = 0
	res, err := minion.RunFlowCell(swPipe, cfg, src)
	if err != nil {
		log.Fatal(err)
	}
	p := readuntil.Params{
		Channels:       cfg.Channels,
		BasesPerSec:    cfg.BasesPerSec,
		CaptureSec:     cfg.CaptureMeanSec,
		EjectSec:       cfg.EjectSec,
		ViralFraction:  viralFraction,
		ViralReadBases: 2000,
		HostReadBases:  6000,
		GenomeLen:      len(virus.Seq),
		Coverage:       30,
	}
	model := readuntil.ClassifierModel{
		Name: "hw", TPR: tpr, FPR: fpr,
		PrefixBases: prefixSamples / readuntil.SamplesPerBase,
	}
	simRate := float64(res.TargetBases) / res.DurationSec
	fmt.Printf("\nASIC at %d channels: measured decision latency %v\n", cfg.Channels, res.Latency)
	fmt.Printf("time to %vx coverage: simulated %.1fs, RuntimeMeasured predicts %.1fs\n",
		p.Coverage, p.Coverage*float64(p.GenomeLen)/simRate, p.RuntimeMeasured(model, res.Latency))
}
