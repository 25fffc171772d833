package minion

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"squigglefilter/internal/engine"
	"squigglefilter/internal/sdtw"
)

// flowCascade builds a small multi-target cascade for coarse-tier load
// modeling: random references (the flow cell prices the passes off the
// cascade's service-time model; survivor selection itself is the engine
// tests' concern).
func flowCascade(t *testing.T) *engine.Cascade {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	icfg := sdtw.DefaultIntConfig()
	const n = 12
	targets := make([]engine.Target, n)
	coarse := make([][]int8, n)
	for i := range targets {
		ref := make([]int8, 600)
		for j := range ref {
			ref[j] = int8(rng.Intn(201) - 100)
		}
		d := engine.DefaultDecimation
		cr := make([]int8, 0, len(ref)/d)
		for j := 0; j+d <= len(ref); j += d {
			s := 0
			for k := 0; k < d; k++ {
				s += int(ref[j+k])
			}
			cr = append(cr, int8(s/d))
		}
		coarse[i] = cr
		stages := []sdtw.Stage{{PrefixSamples: 400, Threshold: 400 * 4}}
		pipe, err := engine.NewPipeline(func() (engine.Backend, error) {
			return engine.NewSoftware(ref, icfg)
		}, 2, stages)
		if err != nil {
			t.Fatal(err)
		}
		targets[i] = engine.Target{Name: "t", Pipeline: pipe}
	}
	panel, err := engine.NewPanel(targets)
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.NewCascade(panel, coarse, icfg, engine.CascadeConfig{TopK: 2, CoarsePrefix: 800})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFlowCellCoarseTier closes ROADMAP item 3's remaining thread: the
// coarse tier under the keep-up verdict. Every read that crosses the
// cascade's coarse prefix (or ends short of it) owes one coarse pass;
// with CoarseLanes > 1 crossings pend and flush as composite batched
// tasks whose lateness counts against Sustained() exactly like a stage
// decision's.
func TestFlowCellCoarseTier(t *testing.T) {
	targets, hosts, pipe := flowPool(t, "sw")
	src := MixedPoolSource(targets, hosts, 0.15)
	cascade := flowCascade(t)
	defer cascade.Close()

	base := func(lanes int) FlowCellConfig {
		cfg := flowConfig(64, 30)
		cfg.Servers = 4
		cfg.Service = func(n int) time.Duration { return time.Duration(n) * 20 * time.Microsecond }
		cfg.Coarse = cascade
		cfg.CoarseLanes = lanes
		return cfg
	}

	seqRes, err := RunFlowCell(pipe, base(1), src)
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.CoarsePasses == 0 || seqRes.CoarseReads == 0 {
		t.Fatalf("sequential coarse tier never ran: %+v", seqRes)
	}
	if seqRes.CoarsePasses != seqRes.CoarseReads {
		t.Errorf("lanes=1 batched anyway: %d passes over %d reads", seqRes.CoarsePasses, seqRes.CoarseReads)
	}
	if seqRes.CoarseLanes != 1 {
		t.Errorf("lanes=1 reported as %d", seqRes.CoarseLanes)
	}
	// Cheap coarse refs on a fast classifier must not break keep-up.
	if !seqRes.Sustained() {
		t.Errorf("cheap coarse tier broke the keep-up verdict: %v", seqRes)
	}

	batchRes, err := RunFlowCell(pipe, base(4), src)
	if err != nil {
		t.Fatal(err)
	}
	if batchRes.CoarsePasses == 0 {
		t.Fatalf("batched coarse tier never ran: %+v", batchRes)
	}
	avg := float64(batchRes.CoarseReads) / float64(batchRes.CoarsePasses)
	if avg <= 1.2 {
		t.Errorf("64 busy channels at lanes=4 averaged only %.2f reads/pass; batches never formed", avg)
	}
	if avg > 4 {
		t.Errorf("average batch %.2f exceeds the lane count", avg)
	}
	if batchRes.CoarsePasses >= batchRes.CoarseReads {
		t.Errorf("batching did not reduce dispatches: %d passes for %d reads",
			batchRes.CoarsePasses, batchRes.CoarseReads)
	}
	if batchRes.Decisions < batchRes.CoarsePasses {
		t.Errorf("coarse passes (%d) not counted into decisions (%d)", batchRes.CoarsePasses, batchRes.Decisions)
	}

	// Out-of-range lane counts clamp to the kernel's width.
	wide, err := RunFlowCell(pipe, base(99), src)
	if err != nil {
		t.Fatal(err)
	}
	if wide.CoarseLanes != engine.MaxBatchLanes {
		t.Errorf("lanes=99 clamped to %d, want %d", wide.CoarseLanes, engine.MaxBatchLanes)
	}

	// Determinism holds with the coarse tier in the task mix.
	again, err := RunFlowCell(pipe, base(4), src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batchRes, again) {
		t.Fatalf("coarse-tier runs diverged:\n%+v\n%+v", batchRes, again)
	}
}

// TestFlowCellCoarseStragglerFlush: a lone busy channel cannot fill a
// 4-lane batch, so every crossing must flush via the straggler path —
// within one chunk period — rather than pending forever. All owed
// passes complete (none stuck in the backlog as unflushed pends).
func TestFlowCellCoarseStragglerFlush(t *testing.T) {
	targets, hosts, pipe := flowPool(t, "sw")
	src := MixedPoolSource(targets, hosts, 0.15)
	cascade := flowCascade(t)
	defer cascade.Close()

	cfg := flowConfig(1, 30)
	cfg.Servers = 4
	cfg.Service = func(n int) time.Duration { return time.Duration(n) * 20 * time.Microsecond }
	cfg.Coarse = cascade
	cfg.CoarseLanes = 4
	res, err := RunFlowCell(pipe, cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoarseReads == 0 {
		t.Fatalf("single channel never crossed the coarse prefix: %+v", res)
	}
	// One channel sequences one read at a time: each crossing is at least
	// a read apart, so the straggler timeout fires before a lanemate ever
	// arrives and every pass carries exactly one read.
	if res.CoarsePasses != res.CoarseReads {
		t.Errorf("straggler flush batched a lone channel: %d passes over %d reads",
			res.CoarsePasses, res.CoarseReads)
	}
}
