package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzPanelSessionFeed checks that a multi-target panel session fed in
// any chunking gives the same answer whether each delivery's targets run
// on the caller alone (plain Panel.NewSession) or are shared with a
// helper set (the cascade's exact-tier fan-out). The panel is the
// pruning fixture: a leader whose reference is the matched read's first
// stage window and decoys on a longer two-stage schedule, so leader
// pruning has something to abandon.
//
// The input picks the read (the fixture's matched read, or a random one
// when seed is odd) and its length, up to 4,800 samples, whether pruning
// is on, and the chunk plan. A 0 byte delivers an empty chunk, 0xff asks
// for more samples than the whole read (clamped to what remains), and any
// other byte b delivers 8·b samples. Whatever the plan leaves undelivered
// goes in one final chunk, and chunks keep arriving after the panel
// decides.
//
// Every Feed's verdict and done flag, the final verdict, Pruned,
// DPSamples and SamplesFed must agree between the two sessions. With
// pruning off both must also equal one-shot Panel.Classify, with nothing
// pruned and DPSamples the sum of its per-target SamplesUsed. With
// pruning on, which targets are abandoned depends on where the delivery
// boundaries fall, so the serial session fed the same chunks is the
// reference. The seed corpus in testdata/fuzz covers empty, oversized
// and stage-crossing chunks with pruning on and off.
func FuzzPanelSessionFeed(f *testing.F) {
	panel, matched := pruningPanel(f, rand.New(rand.NewSource(251)), 4)
	var h helperSet
	h.init(4) // helpers join even on a one-CPU host
	f.Cleanup(h.close)

	f.Fuzz(func(t *testing.T, seed int64, length uint16, prune bool, plan []byte) {
		n := int(length) % 4801
		var read []int16
		if seed%2 == 0 {
			read = append([]int16(nil), matched[:min(n, len(matched))]...)
		} else {
			read = randomRead(rand.New(rand.NewSource(seed)), n)
		}
		pp := PrunePolicy{Enabled: prune}

		serial, err := panel.NewSession(pp)
		if err != nil {
			t.Fatal(err)
		}
		shared := newPanelSession(context.Background(), panel.targets, pp, &h)
		feed := func(chunk []int16) {
			wantR, wantDone := serial.Feed(chunk)
			gotR, gotDone := shared.Feed(chunk)
			if gotDone != wantDone || !reflect.DeepEqual(gotR, wantR) {
				t.Fatalf("read of %d samples, prune %v, plan %v: shared feed (%+v, %v) != serial (%+v, %v)",
					n, prune, plan, gotR, gotDone, wantR, wantDone)
			}
		}
		off := 0
		for _, b := range plan {
			size := 8 * int(b)
			if b == 0xff {
				size = len(read) + 1
			}
			end := min(off+size, len(read))
			feed(read[off:end])
			off = end
		}
		if off < len(read) {
			feed(read[off:])
		}
		want, got := serial.Finalize(), shared.Finalize()

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("read of %d samples, prune %v, plan %v: shared verdict %+v != serial %+v", n, prune, plan, got, want)
		}
		if !reflect.DeepEqual(shared.Pruned(), serial.Pruned()) {
			t.Fatalf("read of %d samples, prune %v, plan %v: pruned %v != %v", n, prune, plan, shared.Pruned(), serial.Pruned())
		}
		if shared.DPSamples() != serial.DPSamples() || shared.SamplesFed() != serial.SamplesFed() {
			t.Fatalf("read of %d samples, prune %v, plan %v: DP samples %d, fed %d != %d, %d", n, prune, plan,
				shared.DPSamples(), shared.SamplesFed(), serial.DPSamples(), serial.SamplesFed())
		}
		if prune {
			return
		}
		oneShot := panel.Classify(read)
		if !reflect.DeepEqual(got, oneShot) {
			t.Fatalf("read of %d samples, plan %v: fed verdict %+v != one-shot %+v", n, plan, got, oneShot)
		}
		var dp int64
		for _, r := range oneShot.PerTarget {
			dp += int64(r.SamplesUsed)
		}
		if shared.DPSamples() != dp {
			t.Fatalf("read of %d samples, plan %v: DP samples %d != one-shot %d", n, plan, shared.DPSamples(), dp)
		}
		for i, p := range shared.Pruned() {
			if p {
				t.Fatalf("read of %d samples, plan %v: target %d pruned with pruning off", n, plan, i)
			}
		}
	})
}
