package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// tinyScale runs every workload's code path in well under a second per
// run: a 3 kb virus, and a 40-target panel that still leaves the coarse
// tier work to do (40 targets against 8 survivors per hypothesis).
var tinyScale = scale{
	virusBases: 3000,
	hostBases:  20000,
	panel:      40,
	pool:       16,
	builds:     2,
}

var workloads = []string{"virus-30k", "cascade-1k"}

type contract struct {
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEveryMetricEmitted runs each workload at a tiny size, untraced and
// traced, and checks that the run emits exactly the metrics BENCHMARK.json
// names, each with its unit, and that no read failed.
func TestEveryMetricEmitted(t *testing.T) {
	c := readContract(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			cfg := config{workload: wl, seed: 3, dur: 200 * time.Millisecond, trace: traced, scale: tinyScale}
			res, host, err := run(cfg, testLog{t})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl, traced, res.Correct, res.Failed, res.Attempted)
			}
			if host.Kernel == "" || host.NProc < 1 {
				t.Errorf("%s: incomplete host record %+v", wl, host)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", wl, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestSeedDeterminesInputs checks that a seed always generates the same
// reads and that another seed does not.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, wl := range workloads {
		_, a, err := newWorkload(wl, 5, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		_, b, _ := newWorkload(wl, 5, tinyScale)
		_, c, _ := newWorkload(wl, 6, tinyScale)
		if !slices.EqualFunc(a, b, samePoolRead) {
			t.Errorf("%s: seed 5 generated different pools", wl)
		}
		if slices.EqualFunc(a, c, samePoolRead) {
			t.Errorf("%s: seeds 5 and 6 generated the same pool", wl)
		}
	}
}

func samePoolRead(a, b poolRead) bool {
	return a.source == b.source && slices.Equal(a.samples, b.samples)
}

// testLog sends the run's log lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}
