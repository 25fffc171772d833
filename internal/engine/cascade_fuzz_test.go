package engine

import (
	"math/rand"
	"reflect"
	"testing"
)

// FuzzCascadeSessionFeed checks that a cascade session fed in any
// chunking reaches the one-shot result. The input picks the read's seed
// and its length: below the coarse prefix (zero included), exactly at
// it, or past it. plan picks the chunk sizes. A 0 byte delivers an empty
// chunk, 0xff asks for more samples than the whole read (clamped to what
// remains), and any other byte b delivers 4·b samples. Whatever the plan
// leaves undelivered goes in one final chunk, and chunks keep arriving
// after the session decides. The verdict must equal Cascade.Classify's,
// and Survivors, CoarseDPCells and Err must equal those of a session fed
// with Stream(read, 0). The seed corpus in testdata/fuzz covers each
// length class with empty, oversized and prefix-crossing chunks.
func FuzzCascadeSessionFeed(f *testing.F) {
	c, _ := buildBoundedCascade(f, rand.New(rand.NewSource(199)), 20, 3, 0, 600)
	f.Cleanup(c.Close)
	prefix := c.cfg.CoarsePrefix

	f.Fuzz(func(t *testing.T, seed int64, length uint16, plan []byte) {
		var n int
		switch sel := int(length / 3); length % 3 {
		case 0:
			n = sel % prefix
		case 1:
			n = prefix
		default:
			n = prefix + 1 + sel%(2*prefix)
		}
		read := randomRead(rand.New(rand.NewSource(seed)), n)

		cs, err := c.NewSession(PrunePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for _, b := range plan {
			size := 4 * int(b)
			if b == 0xff {
				size = len(read) + 1
			}
			end := min(off+size, len(read))
			cs.Feed(read[off:end])
			off = end
		}
		if off < len(read) {
			cs.Feed(read[off:])
		}
		got := cs.Finalize()

		if want := c.Classify(read); !reflect.DeepEqual(got, want) {
			t.Fatalf("read of %d samples, plan %v: fed verdict %+v != one-shot %+v", n, plan, got, want)
		}
		ref, err := c.NewSession(PrunePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		ref.Stream(read, 0)
		if !reflect.DeepEqual(cs.Survivors(), ref.Survivors()) {
			t.Fatalf("read of %d samples, plan %v: survivors %v != %v", n, plan, cs.Survivors(), ref.Survivors())
		}
		if cs.CoarseDPCells() != ref.CoarseDPCells() {
			t.Fatalf("read of %d samples, plan %v: %d coarse cells != %d", n, plan, cs.CoarseDPCells(), ref.CoarseDPCells())
		}
		if cs.Err() != ref.Err() {
			t.Fatalf("read of %d samples, plan %v: Err %v != %v", n, plan, cs.Err(), ref.Err())
		}
	})
}
