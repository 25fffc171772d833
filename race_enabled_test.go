//go:build race

package squigglefilter

// raceEnabled lets allocation-count tests stand down under the race
// detector, whose instrumentation allocates on channel and pool
// operations the uninstrumented build does not, and drops sync.Pool items
// at random.
const raceEnabled = true
