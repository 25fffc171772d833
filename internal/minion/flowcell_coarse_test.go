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
		pipe, err := engine.NewPipeline(func() (*engine.Backend, error) {
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

// TestFlowCellCoarseTier: the coarse tier under the keep-up verdict.
// Every read that crosses the cascade's coarse prefix (or ends short of
// it) owes one coarse pass, submitted as its own task whose lateness
// counts against Sustained() exactly like a stage decision's.
func TestFlowCellCoarseTier(t *testing.T) {
	targets, hosts, pipe := flowPool(t, "sw")
	src := MixedPoolSource(targets, hosts, 0.15)
	cascade := flowCascade(t)
	defer cascade.Close()

	cfg := flowConfig(64, 30)
	cfg.Servers = 4
	cfg.Service = func(n int) time.Duration { return time.Duration(n) * 20 * time.Microsecond }
	cfg.Coarse = cascade

	res, err := RunFlowCell(pipe, cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoarsePasses == 0 || res.CoarseReads == 0 {
		t.Fatalf("coarse tier never ran: %+v", res)
	}
	if res.CoarsePasses != res.CoarseReads {
		t.Errorf("%d coarse passes completed for %d crossings, want one each", res.CoarsePasses, res.CoarseReads)
	}
	if res.Decisions < res.CoarsePasses {
		t.Errorf("coarse passes (%d) not counted into decisions (%d)", res.CoarsePasses, res.Decisions)
	}
	// Cheap coarse refs on a fast classifier must not break keep-up.
	if !res.Sustained() {
		t.Errorf("cheap coarse tier broke the keep-up verdict: %v", res)
	}

	// Determinism holds with the coarse tier in the task mix.
	again, err := RunFlowCell(pipe, cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("coarse-tier runs diverged:\n%+v\n%+v", res, again)
	}
}
