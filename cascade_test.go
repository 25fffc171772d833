package squigglefilter

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"squigglefilter/internal/genome"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/squiggle"
)

// cascadeFixture builds an n-target cascade panel of random genomes and a
// simulator for reads against it. Every target gets the default schedule;
// genomes are genomeBases long.
func cascadeFixture(t testing.TB, rng *rand.Rand, n, genomeBases int, cc CascadeConfig) (*CascadePanel, []*genome.Genome, *squiggle.Simulator) {
	t.Helper()
	genomes := make([]*genome.Genome, n)
	cfgs := make([]DetectorConfig, n)
	for i := range cfgs {
		genomes[i] = &genome.Genome{
			Name: fmt.Sprintf("target-%02d", i),
			Seq:  genome.Random(rng, genomeBases),
		}
		cfgs[i] = DetectorConfig{Name: genomes[i].Name, Sequence: genomes[i].Seq.String(), Workers: 1}
	}
	cp, err := NewCascadePanel(cfgs, cc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Close)
	sim, err := squiggle.NewSimulator(pore.DefaultModel(), squiggle.DefaultConfig(), rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	return cp, genomes, sim
}

// TestCascadeNeverDropsExactWinner is the cascade's core correctness
// contract: over random panels, read pools, and decimation factors, any
// read the exact panel attributes to a target must be attributed to the
// same target by the cascade — the coarse tier never drops the exact
// winner. (Winner preservation implies the winner survived the cut; the
// per-target verdict identity on survivors is pinned at the engine
// layer.)
func TestCascadeNeverDropsExactWinner(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	host := &genome.Genome{Name: "host", Seq: genome.Random(rng, 50000)}
	attributed := 0
	for trial, d := range []int{4, 8, 16} {
		cp, genomes, sim := cascadeFixture(t, rng, 8, 800, CascadeConfig{
			Decimation: d,
			TopK:       3,
		})
		exact := cp.Panel()

		var reads [][]int16
		for _, gi := range []int{0, 3, 7} { // present targets; the rest are absent
			for r := 0; r < 2; r++ {
				read := sim.ReadFrom(genomes[gi], rng.Intn(300), 700, rng.Intn(2) == 1)
				reads = append(reads, read.Samples)
			}
		}
		for r := 0; r < 2; r++ {
			read := sim.ReadFrom(host, rng.Intn(40000), 900, rng.Intn(2) == 1)
			reads = append(reads, read.Samples)
		}

		for i, read := range reads {
			want := exact.Classify(read)
			sess, err := cp.NewSession(PrunePolicy{})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := sess.Stream(read, 1+rng.Intn(900))
			if want.Best < 0 {
				continue // no exact winner to preserve
			}
			attributed++
			if got.Best != want.Best {
				t.Errorf("trial %d (decimation %d) read %d: cascade attributed %q (Best %d), exact panel %q (Best %d); survivors %v",
					trial, d, i, got.Target, got.Best, want.Target, want.Best, sess.Survivors())
			}
		}
	}
	if attributed == 0 {
		t.Fatal("no read was attributed by the exact panel; the property was never exercised")
	}
}

// TestCascadeTopKIdentity: with TopK >= the panel size the coarse tier is
// bypassed and the streamed cascade verdict is bit-identical to one-shot
// Panel.Classify on the shared exact tier — the cascade degenerates to
// the plain panel exactly.
func TestCascadeTopKIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	host := &genome.Genome{Name: "host", Seq: genome.Random(rng, 30000)}
	const n = 5
	cp, genomes, sim := cascadeFixture(t, rng, n, 700, CascadeConfig{TopK: n})
	exact := cp.Panel()

	var reads [][]int16
	for gi := 0; gi < n; gi += 2 {
		read := sim.ReadFrom(genomes[gi], rng.Intn(200), 600, false)
		reads = append(reads, read.Samples)
	}
	reads = append(reads,
		sim.ReadFrom(host, rng.Intn(20000), 800, true).Samples,
		nil, // zero-length read: both sides must report all-Continue
	)

	for i, read := range reads {
		want := exact.Classify(read)
		got := cp.Classify(read)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("read %d: one-shot cascade diverged:\ngot  %+v\nwant %+v", i, got, want)
		}
		sess, err := cp.NewSession(PrunePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		streamed, _ := sess.Stream(read, 1+rng.Intn(700))
		if !reflect.DeepEqual(streamed, want) {
			t.Errorf("read %d: streamed cascade diverged:\ngot  %+v\nwant %+v", i, streamed, want)
		}
		if sess.CoarseDPSamples() != 0 {
			t.Errorf("read %d: coarse tier ran %d DP samples despite TopK >= panel size", i, sess.CoarseDPSamples())
		}
	}
}

// TestCascadeSavesDP: at defaults on an unambiguous read, the cascade's
// total DP cells come in far below the exact panel's — the point of the
// coarse tier.
func TestCascadeSavesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	cp, genomes, sim := cascadeFixture(t, rng, 128, 600, CascadeConfig{})
	read := sim.ReadFrom(genomes[4], 0, 700, false)

	sess, err := cp.NewSession(PrunePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := sess.Stream(read.Samples, 400)
	if v.Best != 4 {
		t.Fatalf("cascade attributed read to %d (%s), want 4", v.Best, v.Target)
	}

	exact, err := cp.Panel().NewSession(PrunePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := exact.Stream(read.Samples, 400); !ok && !exact.Decided() {
		t.Fatal("exact panel never decided")
	}
	// Exact cells = per-target DP samples x the reference length (uniform
	// here: every target genome is the same size).
	det, err := NewDetector(DetectorConfig{Name: "probe", Sequence: genomes[0].Seq.String()})
	if err != nil {
		t.Fatal(err)
	}
	refLen := int64(det.ReferenceSamples())
	exactCells := exact.DPSamples() * refLen
	if sess.DPCells()*4 > exactCells {
		t.Errorf("cascade DP cells %d not under 1/4 of exact %d", sess.DPCells(), exactCells)
	}
}
