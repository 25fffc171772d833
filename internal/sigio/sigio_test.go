package sigio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"squigglefilter/internal/genome"
	"squigglefilter/internal/pore"
	"squigglefilter/internal/squiggle"
)

func makeReads(t *testing.T, n int) []*squiggle.Read {
	t.Helper()
	g := &genome.Genome{Name: "g", Seq: genome.Random(rand.New(rand.NewSource(5)), 5000)}
	sim, err := squiggle.NewSimulator(pore.DefaultModel(), squiggle.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	host := &genome.Genome{Name: "h", Seq: genome.Random(rand.New(rand.NewSource(6)), 20000)}
	spec := squiggle.DefaultSampleSpec(g, host, 0.5, n)
	return sim.GenerateSample(spec)
}

func TestRoundTrip(t *testing.T) {
	reads := makeReads(t, 10)
	var buf bytes.Buffer
	if err := Write(&buf, reads); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reads) {
		t.Fatalf("round-trip count %d != %d", len(got), len(reads))
	}
	for i := range reads {
		a, b := reads[i], got[i]
		if a.ID != b.ID || a.Source != b.Source || a.Target != b.Target ||
			a.Reverse != b.Reverse || a.Pos != b.Pos {
			t.Fatalf("read %d metadata mismatch: %+v vs %+v", i, a, b)
		}
		if a.Bases.String() != b.Bases.String() {
			t.Fatalf("read %d bases mismatch", i)
		}
		if len(a.Samples) != len(b.Samples) {
			t.Fatalf("read %d sample count mismatch", i)
		}
		for j := range a.Samples {
			if a.Samples[j] != b.Samples[j] {
				t.Fatalf("read %d sample %d mismatch", i, j)
			}
		}
		for j := range a.Events {
			if a.Events[j] != b.Events[j] {
				t.Fatalf("read %d event %d mismatch", i, j)
			}
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty dataset round-tripped to %d reads", len(got))
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOPE....")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestTruncated(t *testing.T) {
	reads := makeReads(t, 3)
	var buf bytes.Buffer
	if err := Write(&buf, reads); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated file accepted")
	}
}

func TestBadVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("SQGL")
	buf.Write([]byte{9, 0, 0, 0, 0, 0, 0, 0})
	if _, err := Read(&buf); err == nil {
		t.Error("future version accepted")
	}
}

// hostileSampleCount is a 27-byte SQGL file: a valid header announcing one
// read whose metadata is empty and whose sample count is 0xFFFFFFFF, with
// no sample data behind it.
var hostileSampleCount = []byte{
	'S', 'Q', 'G', 'L', 1, 0, 0, 0, 1, 0, 0, 0, // magic, version, count
	0, 0, 0, 0, // empty id, empty source
	0, 0, 0, 0, 0, // flags, pos
	0, 0, // empty bases
	0xFF, 0xFF, 0xFF, 0xFF, // sample count
}

// TestHostileSampleCount pins that an absurd array length in a short file
// is a truncation error: the reader must not size an allocation from the
// header before any data has arrived.
func TestHostileSampleCount(t *testing.T) {
	if len(hostileSampleCount) != 27 {
		t.Fatalf("fixture is %d bytes, want 27", len(hostileSampleCount))
	}
	_, err := Read(bytes.NewReader(hostileSampleCount))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Read = %v, want a truncation error", err)
	}
}

// FuzzRead feeds arbitrary bytes to the SQGL reader: it must return an
// error or reads, never panic or allocate beyond the input, and whatever
// it accepts must survive a Write/Read round trip unchanged.
func FuzzRead(f *testing.F) {
	bases, err := genome.FromString("ACGTAC")
	if err != nil {
		f.Fatal(err)
	}
	// A small seed keeps the mutator fast; the format has nothing that
	// only long reads exercise.
	seed := []*squiggle.Read{
		{ID: "r0", Source: "g", Target: true, Pos: 3, Bases: bases, Samples: []int16{510, 498, -3}, Events: []int{0, 2}},
		{ID: "r1", Reverse: true, Samples: []int16{}, Events: []int{}},
	}
	var buf bytes.Buffer
	if err := Write(&buf, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(hostileSampleCount)
	f.Fuzz(func(t *testing.T, data []byte) {
		reads, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, reads); err != nil {
			t.Fatalf("re-encoding accepted input: %v", err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("re-reading re-encoded input: %v", err)
		}
		if !reflect.DeepEqual(reads, again) {
			t.Fatal("round trip of accepted input changed it")
		}
	})
}
