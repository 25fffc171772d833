//go:build amd64 && !purego

package sdtw

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestDetectAVX2MatchesCPUInfo checks the CPUID/XGETBV stub against the
// kernel's own view: Linux lists the avx2 flag in /proc/cpuinfo only when
// the CPU has it and the kernel saves the YMM state. Skipped where that
// file is unreadable (other operating systems, restricted sandboxes).
func TestDetectAVX2MatchesCPUInfo(t *testing.T) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	var flags []string
	found := false
	for _, line := range strings.Split(string(b), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
			flags, found = strings.Fields(val), true
			break
		}
	}
	if !found {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	want := slices.Contains(flags, "avx2")
	if got := detectAVX2(); got != want {
		t.Fatalf("detectAVX2() = %v, /proc/cpuinfo avx2 flag = %v", got, want)
	}
	if haveAVX2 != want {
		t.Fatalf("haveAVX2 = %v, /proc/cpuinfo avx2 flag = %v", haveAVX2, want)
	}
	t.Logf("avx2=%v, active sweep %s, coarse %s", want, Sweep(), CoarseSweep())
}
