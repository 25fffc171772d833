#!/usr/bin/env bash
# Bounds-check audit for the sDTW hot strips: the register-resident
# recurrence in sweep.go and sweep16.go is written in forms the compiler's
# prove pass eliminates every per-cell bounds check for; this script
# fails CI if one ever comes back (a refactor re-introducing an
# unprovable shared induction variable is the usual culprit).
# coarse.go rides along: its panel indexing sits on the cascade's
# 1,000-target scoring path and is kept provable behind a single
# unsigned guard (CoarseScorer.ref). So does lanes_amd64.go, the lane
# strip's dispatch: it hands the strip raw pointers behind one length
# check, so no index reaches the per-group call.
#
# Only `Found IsInBounds` diagnostics in the audited files count: the
# one-time entry reslices legitimately emit `Found IsSliceInBounds`, and
# other files in the package are not on the per-cell hot path. The -a flag
# defeats the build cache so the diagnostics are always emitted.
#
# Usage:
#   check_bce.sh            run the audit (exit 1 on any hit)
#   check_bce.sh -selftest  inject a file with a known bounds check into
#                           the audited set and assert the audit FAILS —
#                           proving the grep still bites. Exit 0 iff the
#                           injected check was caught.
set -euo pipefail
cd "$(dirname "$0")/.."

audited='(sweep(16)?|coarse|lanes_amd64)\.go'

audit() {
  local out hits
  out=$(go build -a -gcflags='squigglefilter/internal/sdtw=-d=ssa/check_bce' ./internal/sdtw 2>&1 || true)
  hits=$(echo "$out" | grep 'Found IsInBounds' | grep -E "$audited" || true)
  if [ -n "$hits" ]; then
    echo "bounds checks found in the sDTW hot strips:" >&2
    echo "$hits" >&2
    return 1
  fi
  return 0
}

if [ "${1:-}" = "-selftest" ]; then
  # The injected filename contains "sweep.go" so the audited regex matches
  # it; the arbitrary index defeats the prove pass, so the audit MUST fail.
  inject=internal/sdtw/selftest_sweep.go
  if [ -e "$inject" ]; then
    echo "check_bce selftest: $inject already exists; refusing to overwrite" >&2
    exit 1
  fi
  trap 'rm -f "$inject"' EXIT
  cat >"$inject" <<'EOF'
package sdtw

// Injected by check_bce.sh -selftest: an unprovable index the audit must
// catch. Never committed; the selftest deletes it on exit.
func selftestBoundsCheck(xs []int16, i int) int16 { return xs[i] }
EOF
  if audit 2>/dev/null; then
    echo "check_bce selftest FAILED: injected bounds check was not detected" >&2
    exit 1
  fi
  echo "check_bce selftest passed: injected bounds check was detected"
  exit 0
fi

audit
echo "sDTW hot strips are bounds-check free"
