package sdtw

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	vecReg = regexp.MustCompile(`\b[XY][0-9]+\b`)
	ymmReg = regexp.MustCompile(`\bY[0-9]+\b`)
)

// nonVEXLines returns, for every TEXT block of amd64 assembly src that
// touches a Y register, each instruction with an X or Y operand whose
// mnemonic is not VEX-encoded (does not start with V), and each RET not
// directly preceded by VZEROUPPER. Such a block dirties the upper YMM
// state, so a legacy-SSE instruction in it pays an SSE/AVX transition,
// and so does the caller's SSE code after a RET that leaves it dirty.
func nonVEXLines(src string) []string {
	type line struct {
		no   int
		text string
	}
	var blocks [][]line
	for i, raw := range strings.Split(src, "\n") {
		text, _, _ := strings.Cut(raw, "//")
		text = strings.TrimSpace(text)
		if label, rest, ok := strings.Cut(text, ":"); ok && !strings.ContainsAny(label, " \t(") {
			text = strings.TrimSpace(rest)
		}
		if strings.HasPrefix(text, "TEXT ") {
			blocks = append(blocks, nil)
			continue
		}
		if text == "" || strings.HasPrefix(text, "#") || len(blocks) == 0 {
			continue
		}
		blocks[len(blocks)-1] = append(blocks[len(blocks)-1], line{i + 1, text})
	}
	var bad []string
	for _, block := range blocks {
		usesYMM := false
		for _, l := range block {
			usesYMM = usesYMM || ymmReg.MatchString(l.text)
		}
		if !usesYMM {
			continue
		}
		prev := ""
		for _, l := range block {
			op, operands, _ := strings.Cut(l.text, " ")
			switch {
			case !strings.HasPrefix(op, "V") && vecReg.MatchString(operands):
				bad = append(bad, fmt.Sprintf("line %d: %s is not VEX-encoded", l.no, l.text))
			case op == "RET" && prev != "VZEROUPPER":
				bad = append(bad, fmt.Sprintf("line %d: RET without VZEROUPPER", l.no))
			}
			prev = op
		}
	}
	return bad
}

// TestAVX2StripsVEXOnly: the AVX2 strips are VEX-only and exit through
// VZEROUPPER. One legacy-SSE MOVD ahead of a broadcast made every strip
// call stall on the SSE/AVX transition (EXPERIMENTS.md "VEX-clean strip
// entry"); the results stay bit-identical, so only this scan catches it.
func TestAVX2StripsVEXOnly(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no amd64 assembly found (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range nonVEXLines(string(src)) {
			t.Errorf("%s %s", f, b)
		}
	}

	// Self-check: the scan catches an injected legacy-SSE load and a bare
	// RET, and leaves blocks without a Y register alone.
	const strip = "TEXT ·f(SB), NOSPLIT, $0-8\n" +
		"\tMOVL x+0(FP), AX\n" +
		"\tMOVD AX, X1 // legacy SSE\n" +
		"\tVPBROADCASTD X1, Y1\n" +
		"done:\tRET\n" +
		"TEXT ·g(SB), NOSPLIT, $0-8\n" +
		"\tMOVD AX, X1\n" +
		"\tRET\n"
	if got := nonVEXLines(strip); len(got) != 2 || !strings.Contains(got[0], "MOVD AX, X1") || !strings.Contains(got[1], "RET without") {
		t.Errorf("self-check: scan found %q, want the MOVD on line 3 and the RET on line 5", got)
	}
}
