package genome

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFASTARoundTrip(t *testing.T) {
	f := func(seed int64, n1, n2 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := []*Genome{
			{Name: "rec1", Seq: Random(rng, int(n1)+1)},
			{Name: "rec2", Seq: Random(rng, int(n2)+100)},
		}
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, in...); err != nil {
			return false
		}
		out, err := ReadFASTA(&buf)
		if err != nil || len(out) != 2 {
			return false
		}
		for i := range in {
			if out[i].Name != in[i].Name || out[i].Seq.String() != in[i].Seq.String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadFASTAWrappedAndLowercase(t *testing.T) {
	in := ">virus extra description words\nacgt\nACGT\n\nacg\n"
	gs, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 1 {
		t.Fatalf("got %d records", len(gs))
	}
	if gs[0].Name != "virus" {
		t.Errorf("name %q, want first header token", gs[0].Name)
	}
	if gs[0].Seq.String() != "ACGTACGTACG" {
		t.Errorf("sequence %q", gs[0].Seq.String())
	}
}

func TestReadFASTAErrors(t *testing.T) {
	cases := map[string]string{
		"no header":     "ACGT\n",
		"empty file":    "",
		"bad base":      ">x\nACGN\n",
		"empty record":  ">x\n>y\nACGT\n",
		"empty name":    "> \nACGT\n",
		"only a header": ">x\n",
	}
	for name, in := range cases {
		if _, err := ReadFASTA(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWriteFASTAWraps(t *testing.T) {
	g := &Genome{Name: "long", Seq: Random(rand.New(rand.NewSource(1)), 200)}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, g); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if len(line) > 70 {
			t.Errorf("line %d exceeds 70 columns (%d)", i, len(line))
		}
	}
}

func TestReadFASTAMultiRecordOrder(t *testing.T) {
	in := ">a\nACGT\n>b\nTTTT\n>c\nGGGG\n"
	gs, err := ReadFASTA(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 3 || gs[0].Name != "a" || gs[1].Name != "b" || gs[2].Name != "c" {
		t.Fatalf("records out of order: %+v", gs)
	}
}

// FuzzReadFASTA feeds arbitrary bytes to the FASTA reader: it must return
// records or an error, never panic, and whatever it accepts must survive
// a WriteFASTA/ReadFASTA round trip with the same names and sequences.
func FuzzReadFASTA(f *testing.F) {
	f.Add([]byte(">virus extra words\nacgt\nACGT\n\nacg\n>second\nTTTT\n"))
	f.Add([]byte("ACGT\n>late\nA\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		gs, err := ReadFASTA(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, gs...); err != nil {
			t.Fatalf("writing accepted input: %v", err)
		}
		again, err := ReadFASTA(&buf)
		if err != nil {
			t.Fatalf("re-reading written records: %v", err)
		}
		if len(again) != len(gs) {
			t.Fatalf("round trip kept %d of %d records", len(again), len(gs))
		}
		for i := range gs {
			if again[i].Name != gs[i].Name || again[i].Seq.String() != gs[i].Seq.String() {
				t.Fatalf("record %d: round trip gave %q/%q, want %q/%q",
					i, again[i].Name, again[i].Seq, gs[i].Name, gs[i].Seq)
			}
		}
	})
}
