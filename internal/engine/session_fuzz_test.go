package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"squigglefilter/internal/sdtw"
)

// FuzzSessionFeed checks that a single-target Session fed in any chunking
// reaches the one-shot result bit for bit. The input picks the read's
// seed and length, one of a few stage schedules, and the chunk plan. A 0
// byte delivers an empty chunk, 0xfe a chunk that ends exactly on the
// next stage boundary, 0xff one larger than the whole read (clamped to
// what remains), and any other byte b delivers b samples. Whatever the
// plan leaves undelivered goes in one final chunk, and chunks keep
// arriving after the session decides and after it finalizes.
//
// The same chunks go to a session on NewSoftware and to sessions on two
// SetShards(3) pipelines, one over 1 instance and one over 2, whose
// one-shot Classify must also match. Every Feed must return the same
// result and done flag on all three, a decided Feed must return exactly
// the one-shot (*Backend).Classify result, and so must Finalize —
// PerStage and Stats included. The seed corpus in testdata/fuzz covers
// empty, 1-sample, stage-edge and oversized chunks and feeds after the
// decision.
func FuzzSessionFeed(f *testing.F) {
	rng := rand.New(rand.NewSource(263))
	cfg := sdtw.DefaultIntConfig()
	ref := randomRef(rng, 1200)
	plain, err := NewSoftware(ref, cfg)
	if err != nil {
		f.Fatal(err)
	}
	schedules := [][]sdtw.Stage{
		{{PrefixSamples: 500, Threshold: 1 << 30}},
		{{PrefixSamples: 300, Threshold: 300 * 4}, {PrefixSamples: 700, Threshold: 700 * 4}, {PrefixSamples: 1200, Threshold: 1 << 30}},
		{{PrefixSamples: 1, Threshold: 1 << 30}, {PrefixSamples: 400, Threshold: 400 * 30}, {PrefixSamples: 900, Threshold: 900 * 21}},
		{{PrefixSamples: 300, Threshold: 300 * 30}, {PrefixSamples: 700, Threshold: 700 * 30}, {PrefixSamples: 1200, Threshold: 1 << 30}},
	}

	// sharded[s][i] is schedule s's SetShards(3) pipeline over i+1
	// instances.
	sharded := make([][2]*Pipeline, len(schedules))
	for s, stages := range schedules {
		for i := range sharded[s] {
			pipe, err := NewPipeline(func() (*Backend, error) { return NewSoftware(ref, cfg) }, i+1, stages)
			if err != nil {
				f.Fatal(err)
			}
			if err := pipe.SetShards(3); err != nil {
				f.Fatal(err)
			}
			sharded[s][i] = pipe
		}
	}

	f.Fuzz(func(t *testing.T, seed int64, length uint16, schedule uint8, plan []byte) {
		si := int(schedule) % len(schedules)
		stages := schedules[si]
		read := randomRead(rand.New(rand.NewSource(seed)), int(length)%2001)
		want := plain.Classify(read, stages)
		sw, err := plain.NewSession(stages)
		if err != nil {
			t.Fatal(err)
		}
		sessions := []*Session{sw}
		for i, pipe := range sharded[si] {
			if got := pipe.Classify(read); !reflect.DeepEqual(got, want) {
				t.Fatalf("read of %d samples: sharded one-shot over %d instances %+v != plain %+v", len(read), i+1, got, want)
			}
			sessions = append(sessions, pipe.NewSession())
		}
		off := 0
		feed := func(chunk []int16) {
			r, done := sw.Feed(chunk)
			for i, sh := range sessions[1:] {
				if rs, doneS := sh.Feed(chunk); done != doneS || !reflect.DeepEqual(r, rs) {
					t.Fatalf("read of %d samples, plan %v, at %d: sharded Feed over %d instances %+v (done %v) != plain %+v (done %v)",
						len(read), plan, off, i+1, rs, doneS, r, done)
				}
			}
			if done && !reflect.DeepEqual(r, want) {
				t.Fatalf("read of %d samples, plan %v, at %d: decided Feed %+v != one-shot %+v", len(read), plan, off, r, want)
			}
		}
		for _, b := range plan {
			var size int
			switch b {
			case 0xfe:
				size = len(read) - off
				for _, st := range stages {
					if st.PrefixSamples > off {
						size = st.PrefixSamples - off
						break
					}
				}
			case 0xff:
				size = len(read) + 1
			default:
				size = int(b)
			}
			end := min(off+size, len(read))
			feed(read[off:end])
			off = end
		}
		if off < len(read) {
			feed(read[off:])
		}
		if sw.Decided() {
			feed(read) // signal past the decision: ignored
		}
		for _, s := range sessions {
			if got := s.Finalize(); !reflect.DeepEqual(got, want) {
				t.Fatalf("read of %d samples, plan %v: Finalize %+v != one-shot %+v", len(read), plan, got, want)
			}
			if got, done := s.Feed(read); !done || !reflect.DeepEqual(got, want) {
				t.Fatalf("read of %d samples, plan %v: Feed after Finalize changed the result: done %v %+v", len(read), plan, done, got)
			}
		}
	})
}
