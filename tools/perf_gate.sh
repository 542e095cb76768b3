#!/bin/sh
# Perf regression gate (DESIGN.md §12): run each gated bench, then diff
# its JSON output against its committed baseline trajectory, one unit at
# a time. Stages:
#   micro      bench_micro_perf, ns/op, normalized by the median ratio
#              so a uniformly slower host cannot trip it.
#   recovery   bench_recovery_mttr's MTTR grid (s).
#   partition  bench_partition_availability's outage grid (s) and its
#              latency percentiles (us).
#   overload   bench_overload_degradation's inverse goodput (us/txn, so
#              a goodput collapse raises the value) and p99 (ms); its
#              baseline was recorded with --seconds=10.
#   mispredict bench_misprediction's SLA violations (txn) and capacity
#              cost (node-s) per surge and controller mode.
#   revocation bench_revocation_survival's goodput dip (txn/s), rows
#              lost, buckets evacuated and latency percentiles (us).
# The last five are virtual-clock deterministic (same seed, same
# clock), so they run bench_compare's exact mode (--tolerance): any
# drift, up or down, is a real behaviour change. Exits 2 when a binary
# or baseline is missing, 1 when a bench fails, writes no JSON, or any
# tracked case regresses past the threshold (micro), moves past the
# tolerance (the rest) or vanishes from the suite.
#
# BUILD_DIR (default build) is the build tree holding the binaries.
# Paths are relative to the repo root, which it runs from.
set -u

BUILD_DIR="${BUILD_DIR:-build}"
BENCH_COMPARE="$BUILD_DIR/tools/bench_compare"

# The stages, one row each: bench|args|baseline|current|mode|units.
# BENCH is a binary under $BUILD_DIR/bench; ARGS is word-split; MODE is
# bench_compare's gating flag: --threshold=F (normalized; 0.5 tolerates
# +50%) or --tolerance=F (exact). Each micro case's value is its median
# over three repetitions, interleaved with every other case's, so a host
# slowdown that lasts a moment lands in one repetition of a few cases
# and is voted out.
MANIFEST='
bench_micro_perf|--benchmark_min_time=0.05 --benchmark_repetitions=3 --benchmark_enable_random_interleaving=true --benchmark_display_aggregates_only=true|bench/baselines/BENCH_micro_perf.json|bench_out/BENCH_micro_perf.json|--threshold=0.5|ns/op
bench_recovery_mttr|--seconds=30|bench/baselines/BENCH_recovery_mttr.json|bench_out/BENCH_recovery_mttr.json|--tolerance=1e-9|s
bench_partition_availability||bench/baselines/BENCH_partition_availability.json|bench_out/BENCH_partition_availability.json|--tolerance=1e-9|s us
bench_overload_degradation|--seconds=10|bench/baselines/BENCH_overload_degradation.json|bench_out/BENCH_overload_degradation.json|--tolerance=1e-9|us/txn ms
bench_misprediction||bench/baselines/BENCH_misprediction.json|bench_out/BENCH_misprediction.json|--tolerance=1e-9|txn node-s
bench_revocation_survival||bench/baselines/BENCH_revocation_survival.json|bench_out/BENCH_revocation_survival.json|--tolerance=1e-9|txn/s rows buckets us
'

if [ ! -x "$BENCH_COMPARE" ]; then
  echo "perf_gate: missing binary $BENCH_COMPARE (build first)" >&2
  exit 2
fi
while IFS='|' read -r bench args baseline current mode units; do
  [ -n "$bench" ] || continue
  if [ ! -x "$BUILD_DIR/bench/$bench" ]; then
    echo "perf_gate: missing binary $BUILD_DIR/bench/$bench (build first)" >&2
    exit 2
  fi
  if [ ! -f "$baseline" ]; then
    echo "perf_gate: missing baseline $baseline" >&2
    exit 2
  fi
done <<EOF
$MANIFEST
EOF

status=0

# stage BENCH "ARGS" BASELINE CURRENT MODE "UNITS": runs BENCH with
# ARGS, then compares CURRENT against BASELINE once per unit. Neither
# reads the manifest the loop below feeds on stdin.
stage() {
  bench=$BUILD_DIR/bench/$1 args=$2 baseline=$3 current=$4 mode=$5 units=$6
  rm -f "$current"
  # shellcheck disable=SC2086  # ARGS is a flag list, split on purpose.
  if ! "$bench" $args </dev/null; then
    echo "perf_gate: $(basename "$bench") exited non-zero" >&2
    exit 1
  fi
  if [ ! -f "$current" ]; then
    echo "perf_gate: $(basename "$bench") wrote no JSON at $current" >&2
    exit 1
  fi
  for unit in $units; do
    if ! "$BENCH_COMPARE" --baseline="$baseline" --current="$current" \
        "$mode" --unit="$unit" </dev/null; then
      status=1
    fi
  done
}

while IFS='|' read -r bench args baseline current mode units; do
  [ -n "$bench" ] || continue
  stage "$bench" "$args" "$baseline" "$current" "$mode" "$units"
done <<EOF
$MANIFEST
EOF

exit "$status"
