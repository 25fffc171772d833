#!/usr/bin/env bash
# Acceptance-gate presence check. `go test -race ./...` already runs every
# test in the module, the gates below included; what a green run cannot
# show is that a gate still exists. A renamed or deleted gate just stops
# running. This script lists each package's tests with `go test -list`
# (compile only, nothing runs) and fails naming every gate that is gone.
#
# Usage: scripts/check_gates.sh   (exit 1 if any gate is missing)
set -euo pipefail
cd "$(dirname "$0")/.."

# One package per line, followed by the gate tests that must exist in it.
#
# - Panel sessions: streamed panel verdicts are chunking-invariant and
#   pruning never changes the winner.
# - Sharding: sharded sw/hw rows stay bit-identical to the unsharded
#   kernel at every layer.
# - Vector strips: the AVX2 row sweep is bit-identical to the scalar one,
#   and the coarse lane-group strip to the scalar Score for every lane;
#   both strips are VEX-only and exit through VZEROUPPER.
# - Scheduler: every concurrency path dispatches through
#   internal/engine/sched with verdicts identical to serial
#   classification, mixed load stays deadlock-free on one instance, the
#   virtual-time twin is deterministic, a context already cancelled
#   never gets an instance, and the 512-channel keep-up verdict
#   cross-validates against the runtime model.
# - One read path: one-shot Pipeline.Classify is a session fed the whole
#   read once on sw, hw and gpu, scheduling one task per evaluated stage.
# - Cascade: the coarse tier never drops the exact panel's winner, and
#   TopK >= the panel size is bit-identical to a plain panel.
# - Coarse pass: the pooled multi-participant pass commits the survivors
#   that scoring each target on its own would (a Margin that overflows
#   the cut included), cancelled or closed cascades unwind without
#   leaking coarse workers, Close is safe racing in-flight passes, every
#   pass takes one scheduler slot per lane group of 16 references, and
#   the flow cell prices one coarse pass per read.
# - Exact-tier fan-out: survivors shared with the helper set unwind on
#   cancel and on Close with no leaked goroutine, the helpers are parked
#   before a cascade's first read, and a cancelled one-shot cascade read
#   returns its error instead of panicking.
# - Sharded wavefront: a cancelled chunk unwinds from either wait (halo,
#   instance) with no leaked goroutine and the last stage's verdict; a
#   warm session, default or Shards: 2, stays within its allocation
#   bounds; the default shard count follows the cores on a Detector's
#   sw paths only; a helper that just left one claim job joins the next.
gates='
./internal/engine TestPanelSessionChunkingInvariance TestPanelSessionPruningDisabledPreservesBest TestPanelSessionPruningSavesDP
./internal/sdtw TestShardedRowMatchesExtend TestSweepRowSIMDIdentity TestCoarseLanesIdentity TestAVX2StripsVEXOnly
./internal/hw TestTileGroupMatchesSoftware TestTileGroupMultiPassSharded
./internal/engine TestShardedPipelineParity TestHardwareTilesBackendParity
./internal/engine TestSchedulerVerdictParity TestSchedulerMixedLoadOneInstance TestClassifyBatchCancelled TestSessionFeedCancelled
./internal/engine TestPipelineClassifyIsSession
./internal/engine/sched TestVirtualDeterminism TestVirtualEDFOrder TestSchedulerEDFGrantOrder TestSchedulerAcquireCancelledContext
./internal/minion TestFlowCell512KeepUpVerdict TestFlowCellDeterministic TestFlowCellCrossValidatesRuntimeMeasured
. TestCascadeNeverDropsExactWinner TestCascadeTopKIdentity
./internal/engine TestCascadeBoundedSurvivorIdentity TestCascadeSessionContextCancel TestCascadeCloseReleasesWorkers
./internal/engine TestCascadeCloseConcurrent TestCascadeSessionOneAcquirePerLaneGroup
./internal/minion TestFlowCellCoarseTier
./internal/engine TestCascadeExactTierFanOutUnwinds TestCascadeClassifyContextError TestCascadeHelpersParkedBeforeFirstRead
./internal/engine TestShardedSessionCancelUnwinds TestHelperSetJoinsBackToBack
. TestSessionSteadyStateAllocs TestDetectorDefaultShards
'

missing=0
while read -r pkg tests; do
  [ -n "$pkg" ] || continue
  listed=$(go test -list '^Test' "$pkg")
  for t in $tests; do
    if ! grep -qx "$t" <<<"$listed"; then
      echo "gate test $t is missing from $pkg" >&2
      missing=1
    fi
  done
done <<<"$gates"

if [ "$missing" -ne 0 ]; then
  exit 1
fi
echo "every acceptance gate test exists"
