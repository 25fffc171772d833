package engine

import (
	"testing"
	"time"
)

// TestHelperSetJoinsBackToBack: a helper that has just left one job
// joins the next job its caller hands over at once, even before it is
// back at its receive. Whichever participant claims a job's first item
// waits for the second to start, so a job the helper missed would leave
// the caller waiting on itself.
func TestHelperSetJoinsBackToBack(t *testing.T) {
	var h helperSet
	h.init(2)
	defer h.close()
	started := make(chan struct{}, 1)
	missed := false
	var j claimJob
	j.body = claimFunc(func(i int) {
		if i == 1 {
			started <- struct{}{}
			return
		}
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			missed = true
		}
	})
	for k := 0; k < 1000; k++ {
		j.reset(2)
		h.run(&j)
		if missed {
			t.Fatalf("job %d: the helper did not join", k)
		}
	}
}
