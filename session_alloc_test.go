package squigglefilter

import (
	"math/rand"
	"runtime"
	"testing"

	"squigglefilter/internal/genome"
)

// TestSessionSteadyStateAllocs bounds what one read costs the heap once a
// Detector is warm: a session fed 400-sample chunks (MinION's ~0.1 s
// per-channel deliveries) up to its 2,000-sample decision. The staging
// buffer, the normalized stage chunk, the DP row and, when sharded, the
// wavefront's shard views and halos all come back from the detector's
// pool, so what remains is the session handle and its verdict record.
// The default detector is sharded wherever GOMAXPROCS > 1; the Shards: 2
// arm keeps the wavefront covered on a 1-CPU runner too.
func TestSessionSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	for _, arm := range []struct {
		name   string
		shards int
	}{{"default", 0}, {"shards=2", 2}} {
		t.Run(arm.name, func(t *testing.T) { sessionSteadyStateAllocs(t, arm.shards) })
	}
}

func sessionSteadyStateAllocs(t *testing.T, shards int) {
	g := &genome.Genome{Name: "alloc-virus", Seq: genome.Random(rand.New(rand.NewSource(1)), 1500)}
	det, err := NewDetector(DetectorConfig{Name: g.Name, Sequence: g.Seq.String(), Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	targets, hosts := simReads(t, g, 1)
	reads := [][]int16{targets[0], hosts[0]}
	const chunk = 400
	i := 0
	readOne := func() {
		r := reads[i%len(reads)]
		i++
		s := det.NewSession()
		for off := 0; off < len(r); off += chunk {
			if _, done := s.Feed(r[off:min(off+chunk, len(r))]); done {
				return
			}
		}
		s.Finalize()
	}
	for w := 0; w < 8; w++ {
		readOne() // fill the pools
	}
	const runs = 50
	allocs := testing.AllocsPerRun(runs, readOne)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		readOne()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("shards=%d: %.1f allocations, %.0f B per read", det.Shards(), allocs, bytes)
	if allocs > 6 || bytes >= 1024 {
		t.Errorf("steady-state read allocates %.1f times, %.0f B; want at most 6 and under 1 KB", allocs, bytes)
	}
}
