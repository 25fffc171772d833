package engine

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"squigglefilter/internal/gpu"
	"squigglefilter/internal/sdtw"
)

// randomRef builds a plausible normalized reference squiggle: a smooth-ish
// walk over the int8 range, like a real pore model's output.
func randomRef(rng *rand.Rand, n int) []int8 {
	ref := make([]int8, n)
	level := 0
	for i := range ref {
		level += rng.Intn(41) - 20
		if level > 127 {
			level = 127
		} else if level < -127 {
			level = -127
		}
		ref[i] = int8(level)
	}
	return ref
}

// randomRead builds a raw 10-bit ADC read.
func randomRead(rng *rand.Rand, n int) []int16 {
	read := make([]int16, n)
	base := int16(400 + rng.Intn(200))
	for i := range read {
		read[i] = base + int16(rng.Intn(301)-150)
	}
	return read
}

func testBackends(t *testing.T, ref []int8, cfg sdtw.IntConfig) map[string]*Backend {
	t.Helper()
	sw, err := NewSoftware(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hwB, err := NewHardware(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gpuB, err := NewGPU(ref, cfg, gpu.TitanXP())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Backend{"sw": sw, "hw": hwB, "gpu": gpuB}
}

// TestBackendParity is the acceptance property: over random reads and
// random multi-stage schedules, all three back-ends produce bit-identical
// costs, decisions, end positions, and per-stage records.
func TestBackendParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 3000)
	backends := testBackends(t, ref, cfg)

	for trial := 0; trial < 30; trial++ {
		// Random 1-3 stage schedule with random thresholds, including
		// prefixes that are not normalizer-window multiples and reads
		// shorter than the last stage boundary.
		nStages := 1 + rng.Intn(3)
		stages := make([]sdtw.Stage, nStages)
		prefix := 0
		for i := range stages {
			prefix += 300 + rng.Intn(900)
			stages[i] = sdtw.Stage{
				PrefixSamples: prefix,
				Threshold:     int32(rng.Intn(prefix * 6)),
			}
		}
		read := randomRead(rng, 200+rng.Intn(3200))

		want := backends["sw"].Classify(read, stages)
		for name, b := range backends {
			got := b.Classify(read, stages)
			if got.Decision != want.Decision || got.Cost != want.Cost ||
				got.EndPos != want.EndPos || got.SamplesUsed != want.SamplesUsed {
				t.Fatalf("trial %d: %s backend diverged: got {%v cost=%d end=%d used=%d}, want {%v cost=%d end=%d used=%d}",
					trial, name, got.Decision, got.Cost, got.EndPos, got.SamplesUsed,
					want.Decision, want.Cost, want.EndPos, want.SamplesUsed)
			}
			if !reflect.DeepEqual(got.PerStage, want.PerStage) {
				t.Fatalf("trial %d: %s backend per-stage records diverged:\ngot  %+v\nwant %+v",
					trial, name, got.PerStage, want.PerStage)
			}
		}
	}
}

// TestBackendMatchesFilter pins the engine's shared staging policy to the
// original sdtw.Filter implementation, so the two cannot drift.
func TestBackendMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 2500)
	stages := []sdtw.Stage{
		{PrefixSamples: 800, Threshold: 800 * 5},
		{PrefixSamples: 2100, Threshold: 2100 * 3},
	}
	filter, err := sdtw.NewFilter(ref, cfg, stages)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSoftware(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		read := randomRead(rng, 100+rng.Intn(2800))
		fv := filter.Classify(read)
		ev := sw.Classify(read, stages)
		if sdtw.Decision(ev.Decision) != fv.Decision || ev.Cost != fv.Cost() || ev.SamplesUsed != fv.SamplesUsed {
			t.Fatalf("trial %d: engine {%v cost=%d used=%d} != filter {%v cost=%d used=%d}",
				trial, ev.Decision, ev.Cost, ev.SamplesUsed, fv.Decision, fv.Cost(), fv.SamplesUsed)
		}
		if len(ev.PerStage) != len(fv.PerStage) {
			t.Fatalf("trial %d: stage count %d != %d", trial, len(ev.PerStage), len(fv.PerStage))
		}
	}
}

func TestBackendStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 2000)
	backends := testBackends(t, ref, cfg)
	stages := []sdtw.Stage{
		{PrefixSamples: 1000, Threshold: 1 << 30},
		{PrefixSamples: 2200, Threshold: 1 << 30},
	}
	read := randomRead(rng, 2500)

	sw := backends["sw"].Classify(read, stages)
	if sw.Stats != (Stats{}) {
		t.Errorf("software backend should report zero stats, got %+v", sw.Stats)
	}
	hwRes := backends["hw"].Classify(read, stages)
	if hwRes.Stats.Cycles <= 0 || hwRes.Stats.Latency <= 0 {
		t.Errorf("hardware backend missing cycle stats: %+v", hwRes.Stats)
	}
	if hwRes.Stats.DRAMBytes <= 0 {
		t.Errorf("multi-stage hardware run should report DRAM row traffic, got %d", hwRes.Stats.DRAMBytes)
	}
	gpuRes := backends["gpu"].Classify(read, stages)
	if gpuRes.Stats.Latency <= 0 {
		t.Errorf("gpu backend missing modeled latency: %+v", gpuRes.Stats)
	}
	if gpuRes.Stats.Latency <= hwRes.Stats.Latency {
		t.Errorf("modeled GPU latency %v should exceed accelerator latency %v", gpuRes.Stats.Latency, hwRes.Stats.Latency)
	}
}

func TestValidateStages(t *testing.T) {
	bad := [][]sdtw.Stage{
		nil,
		{{PrefixSamples: 0, Threshold: 1}},
		{{PrefixSamples: 1000, Threshold: 1}, {PrefixSamples: 1000, Threshold: 2}},
		{{PrefixSamples: 2000, Threshold: 1}, {PrefixSamples: 1000, Threshold: 2}},
	}
	for i, stages := range bad {
		if err := ValidateStages(stages); err == nil {
			t.Errorf("case %d: invalid schedule accepted", i)
		}
	}
	if err := ValidateStages([]sdtw.Stage{{PrefixSamples: 1000, Threshold: 0}}); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func newHWPipeline(t *testing.T, ref []int8, cfg sdtw.IntConfig, workers int, stages []sdtw.Stage) *Pipeline {
	t.Helper()
	p, err := NewPipeline(func() (*Backend, error) { return NewHardware(ref, cfg) }, workers, stages)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPipelineBatchMatchesSerial checks batch results are in input order
// and identical to serial classification — including with the
// stateful-per-instance hardware back-end sharded across workers.
func TestPipelineBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 2000)
	stages := []sdtw.Stage{{PrefixSamples: 1500, Threshold: 1500 * 3}}
	pipe := newHWPipeline(t, ref, cfg, 4, stages)

	reads := make([][]int16, 24)
	for i := range reads {
		reads[i] = randomRead(rng, 1000+rng.Intn(1500))
	}
	serial := make([]Result, len(reads))
	for i, r := range reads {
		serial[i] = pipe.Classify(r)
	}
	batch, err := pipe.ClassifyBatch(context.Background(), reads)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reads {
		if batch[i].Decision != serial[i].Decision || batch[i].Cost != serial[i].Cost {
			t.Fatalf("read %d: batch {%v %d} != serial {%v %d}",
				i, batch[i].Decision, batch[i].Cost, serial[i].Decision, serial[i].Cost)
		}
	}
}

// TestPipelineConcurrentUse shares one hardware-backed pipeline across 8
// goroutines; run under -race this is the engine-level concurrency check.
func TestPipelineConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 1500)
	stages := []sdtw.Stage{{PrefixSamples: 1000, Threshold: 1000 * 3}}
	pipe := newHWPipeline(t, ref, cfg, 3, stages)

	const goroutines = 8
	reads := make([][]int16, goroutines)
	want := make([]Result, goroutines)
	for i := range reads {
		reads[i] = randomRead(rng, 1200)
		want[i] = pipe.Classify(reads[i])
	}
	var wg sync.WaitGroup
	got := make([]Result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = pipe.Classify(reads[g])
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g].Decision != want[g].Decision || got[g].Cost != want[g].Cost {
			t.Errorf("goroutine %d: concurrent verdict {%v %d} != serial {%v %d}",
				g, got[g].Decision, got[g].Cost, want[g].Decision, want[g].Cost)
		}
	}
}

func TestPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cfg := sdtw.DefaultIntConfig()
	stages := []sdtw.Stage{{PrefixSamples: 1000, Threshold: 1 << 30}} // accept-all: rank by cost
	newTarget := func(name string, ref []int8) Target {
		p, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, cfg) }, 2, stages)
		if err != nil {
			t.Fatal(err)
		}
		return Target{Name: name, Pipeline: p}
	}
	refA := randomRef(rng, 1500)
	refB := randomRef(rng, 1500)
	panel, err := NewPanel([]Target{newTarget("A", refA), newTarget("B", refB)})
	if err != nil {
		t.Fatal(err)
	}
	if got := panel.Targets(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("targets = %v", got)
	}

	read := randomRead(rng, 1200)
	pr := panel.Classify(read)
	if pr.Best < 0 || pr.Best > 1 {
		t.Fatalf("best = %d with accept-all thresholds", pr.Best)
	}
	// Best must be the accepted target with the lowest per-sample cost.
	other := 1 - pr.Best
	bestRate := float64(pr.PerTarget[pr.Best].Cost) / float64(pr.PerTarget[pr.Best].SamplesUsed)
	otherRate := float64(pr.PerTarget[other].Cost) / float64(pr.PerTarget[other].SamplesUsed)
	if bestRate > otherRate {
		t.Errorf("best target rate %.2f worse than other %.2f", bestRate, otherRate)
	}

	batch := panel.ClassifyBatch([][]int16{read, randomRead(rng, 700)})
	if len(batch) != 2 {
		t.Fatalf("batch returned %d results", len(batch))
	}
	if batch[0].Best != pr.Best || batch[0].PerTarget[0].Cost != pr.PerTarget[0].Cost {
		t.Errorf("batch result differs from single classify")
	}

	// All-reject schedule yields Best -1.
	rejStages := []sdtw.Stage{{PrefixSamples: 1000, Threshold: -1 << 30}}
	pRej, err := NewPipeline(func() (*Backend, error) { return NewSoftware(refA, cfg) }, 1, rejStages)
	if err != nil {
		t.Fatal(err)
	}
	rejPanel, err := NewPanel([]Target{{Name: "rej", Pipeline: pRej}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rejPanel.Classify(read); got.Best != -1 {
		t.Errorf("all-reject panel best = %d, want -1", got.Best)
	}
}

func TestPipelineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ref := randomRef(rng, 500)
	cfg := sdtw.DefaultIntConfig()
	if _, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, cfg) }, 2, nil); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := NewPipeline(func() (*Backend, error) { return NewSoftware(nil, cfg) }, 2,
		[]sdtw.Stage{{PrefixSamples: 100, Threshold: 1}}); err == nil {
		t.Error("failing factory not surfaced")
	}
	if _, err := NewPanel(nil); err == nil {
		t.Error("empty panel accepted")
	}
}
