package main

import (
	"fmt"
	"math/rand"
	"time"

	"squigglefilter"
	"squigglefilter/internal/genome"
	"squigglefilter/internal/normalize"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/sdtw"
	"squigglefilter/internal/squiggle"
)

// Input sizes shared by the benchmark and the tiny test.
const (
	panelBases     = 800 // bases per cascade target, as in BenchmarkCascade1000
	presentTargets = 8   // cascade targets the pool draws target reads from
	virusRead      = 500 // bases per virus-30k read
	cascadeRead    = 800 // bases per cascade read: all but ~1% cross the coarse prefix
	checked        = 4   // leading pool reads verified against the reference path
)

// scale sizes a workload's inputs. fullScale is the benchmark; the test
// runs the same code at tinyScale.
type scale struct {
	virusBases int // virus-30k target genome
	hostBases  int // host genome every workload draws background reads from
	panel      int // cascade panel size
	pool       int // distinct reads, cycled in order by the closed loop
	// setup_s is the median of at least builds timed builds spanning at
	// least setupTime.
	builds    int
	setupTime time.Duration
}

var fullScale = scale{
	virusBases: 30000,
	hostBases:  100000,
	panel:      1000,
	pool:       240,
	builds:     7,
	setupTime:  time.Second,
}

// poolRead is one generated read and its ground truth: the index of the
// target genome it came from, or -1 for host.
type poolRead struct {
	samples []int16
	source  int
}

// session is one read's incremental classification as the closed loop
// drives it.
type session interface {
	feed(chunk []int16)
	finalize()
	decided() bool
	// report fills the decision and the engine's counters into o.
	report(o *outcome)
	// verdict renders the full verdict for comparison with the reference.
	verdict() string
}

// workload is one closed-loop Read Until setting.
type workload interface {
	// build constructs the program under test; setup_s times it. Callers
	// close the previous build first.
	build() error
	open() (session, error)
	// reference classifies a read through the workload's reference path
	// and returns the verdict in the form session.verdict takes.
	reference(samples []int16) string
	kernel() squigglefilter.Kernel
	newReplayer(tr *tracer) (*replayer, error)
	close()
}

func newWorkload(name string, seed int64, sc scale) (workload, []poolRead, error) {
	rng := rand.New(rand.NewSource(seed))
	sim, err := squiggle.NewSimulator(pore.DefaultModel(), squiggle.DefaultConfig(), rng.Int63())
	if err != nil {
		return nil, nil, err
	}
	switch name {
	case "virus-30k":
		virus := &genome.Genome{Name: "virus", Seq: genome.Random(rng, sc.virusBases)}
		host := &genome.Genome{Name: "host", Seq: genome.Random(rng, sc.hostBases)}
		// Reads alternate between virus and host. Every read costs the same
		// single 2,000-sample extend whatever its source, so the mix sets
		// only how many target reads tpr rests on: ~55 in a 55 s run.
		pool := make([]poolRead, sc.pool)
		for i := range pool {
			g, src := host, -1
			if i%2 == 0 {
				g, src = virus, 0
			}
			r := sim.ReadFrom(g, rng.Intn(g.Len()-virusRead), virusRead, rng.Intn(2) == 1)
			pool[i] = poolRead{samples: r.Samples, source: src}
		}
		return &virusBench{genome: virus, seq: virus.Seq.String()}, pool, nil
	case "cascade-1k":
		genomes := make([]*genome.Genome, sc.panel)
		cfgs := make([]squigglefilter.DetectorConfig, sc.panel)
		for i := range genomes {
			genomes[i] = &genome.Genome{Name: fmt.Sprintf("target-%04d", i), Seq: genome.Random(rng, panelBases)}
			cfgs[i] = squigglefilter.DetectorConfig{Name: genomes[i].Name, Sequence: genomes[i].Seq.String(), Workers: 1}
		}
		host := &genome.Genome{Name: "host", Seq: genome.Random(rng, sc.hostBases)}
		present := rng.Perm(sc.panel)[:presentTargets]
		// Reads alternate between the present targets and host.
		pool := make([]poolRead, sc.pool)
		for i := range pool {
			if i%2 == 0 {
				src := present[(i/2)%len(present)]
				r := sim.ReadFrom(genomes[src], rng.Intn(panelBases-cascadeRead+1), cascadeRead, rng.Intn(2) == 1)
				pool[i] = poolRead{samples: r.Samples, source: src}
			} else {
				r := sim.ReadFrom(host, rng.Intn(sc.hostBases-cascadeRead), cascadeRead, rng.Intn(2) == 1)
				pool[i] = poolRead{samples: r.Samples, source: -1}
			}
		}
		return &cascadeBench{genomes: genomes, cfgs: cfgs}, pool, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want virus-30k or cascade-1k)", name)
}

// virusBench is one Detector on one genome with the default config: the
// paper's operating point.
type virusBench struct {
	genome *genome.Genome
	seq    string
	det    *squigglefilter.Detector
}

func (v *virusBench) build() error {
	det, err := squigglefilter.NewDetector(squigglefilter.DetectorConfig{Name: v.genome.Name, Sequence: v.seq})
	v.det = det
	return err
}

func (v *virusBench) open() (session, error) {
	return &detSession{s: v.det.NewSession(), refLen: v.det.ReferenceSamples()}, nil
}

func (v *virusBench) reference(samples []int16) string {
	return fmt.Sprintf("%+v", v.det.Classify(samples))
}

func (v *virusBench) kernel() squigglefilter.Kernel { return v.det.Kernel() }

func (v *virusBench) newReplayer(tr *tracer) (*replayer, error) {
	ref := pore.DefaultModel().BuildReference(v.genome).Int8
	return &replayer{tr: tr, exact: [][]int8{ref}, kern: v.det.Kernel(), icfg: sdtw.DefaultIntConfig()}, nil
}

func (v *virusBench) close() { v.det = nil }

type detSession struct {
	s      *squigglefilter.Session
	v      squigglefilter.Verdict
	refLen int
}

func (d *detSession) feed(chunk []int16) {
	d.v, _ = d.s.Feed(chunk)
}

func (d *detSession) finalize()     { d.v = d.s.Finalize() }
func (d *detSession) decided() bool { return d.s.Decided() }

func (d *detSession) report(o *outcome) {
	o.undecided = d.v.Decision == squigglefilter.Continue
	o.positive = d.v.Decision == squigglefilter.Accept
	o.attributed = o.positive
	o.survivors = []int{0}
	o.costs = []int32{d.v.Cost}
	o.used = []int{d.v.SamplesUsed}
	o.exactCells = int64(d.v.SamplesUsed) * int64(d.refLen)
}

func (d *detSession) verdict() string { return fmt.Sprintf("%+v", d.v) }

// cascadeBench is the BenchmarkCascade1000 panel behind a CascadePanel with
// the default CascadeConfig, fed one session at a time.
type cascadeBench struct {
	genomes []*genome.Genome
	cfgs    []squigglefilter.DetectorConfig
	cp      *squigglefilter.CascadePanel
}

func (c *cascadeBench) build() error {
	cp, err := squigglefilter.NewCascadePanel(c.cfgs, squigglefilter.CascadeConfig{})
	c.cp = cp
	return err
}

func (c *cascadeBench) open() (session, error) {
	s, err := c.cp.NewSession(squigglefilter.PrunePolicy{})
	return &cascadeSession{s: s}, err
}

func (c *cascadeBench) reference(samples []int16) string {
	return fmt.Sprintf("%+v", c.cp.Classify(samples))
}

func (c *cascadeBench) kernel() squigglefilter.Kernel { return c.cfgs[0].Kernel }

// newReplayer rebuilds each target's exact and decimated references the
// way NewCascadePanel does; the fidelity check catches any drift.
func (c *cascadeBench) newReplayer(tr *tracer) (*replayer, error) {
	cc := c.cp.Config()
	exact := make([][]int8, len(c.genomes))
	coarse := make([][]int8, len(c.genomes))
	for i, g := range c.genomes {
		ref := pore.DefaultModel().BuildReference(g)
		exact[i] = ref.Int8
		coarse[i] = normalize.QuantizeSlice(squiggle.Decimate(ref.Float, cc.Decimation))
	}
	ct, err := newCoarseTier(coarse, cc)
	if err != nil {
		return nil, err
	}
	return &replayer{tr: tr, exact: exact, kern: c.kernel(), icfg: sdtw.DefaultIntConfig(), coarse: ct}, nil
}

func (c *cascadeBench) close() {
	if c.cp != nil {
		c.cp.Close()
		c.cp = nil
	}
}

type cascadeSession struct {
	s *squigglefilter.CascadeSession
	v squigglefilter.PanelVerdict
}

func (c *cascadeSession) feed(chunk []int16) {
	c.v, _ = c.s.Feed(chunk)
}

func (c *cascadeSession) finalize()     { c.v = c.s.Finalize() }
func (c *cascadeSession) decided() bool { return c.s.Decided() }

func (c *cascadeSession) report(o *outcome) {
	o.err = c.s.Err()
	o.undecided = c.v.Undecided
	o.positive = c.v.Best >= 0
	o.attributed = o.positive && c.v.Best == o.source
	o.survivors = c.s.Survivors()
	o.costs = make([]int32, len(o.survivors))
	o.used = make([]int, len(o.survivors))
	for j, i := range o.survivors {
		o.costs[j] = c.v.Verdicts[i].Cost
		o.used[j] = c.v.Verdicts[i].SamplesUsed
	}
	o.coarseCells = c.s.CoarseDPCells()
	o.exactCells = c.s.DPCells() - o.coarseCells
	o.coarsePruned = c.s.CoarsePruned()
	o.coarseScorings = c.s.CoarseScorings()
}

func (c *cascadeSession) verdict() string { return fmt.Sprintf("%+v", c.v) }
