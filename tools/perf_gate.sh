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
# The last three are virtual-clock deterministic (same seed, same
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
BENCH_MICRO_PERF="$BUILD_DIR/bench/bench_micro_perf"
BENCH_RECOVERY_MTTR="$BUILD_DIR/bench/bench_recovery_mttr"
BENCH_PARTITION_AVAILABILITY="$BUILD_DIR/bench/bench_partition_availability"
BENCH_OVERLOAD_DEGRADATION="$BUILD_DIR/bench/bench_overload_degradation"
BENCH_COMPARE="$BUILD_DIR/tools/bench_compare"
BASELINE=bench/baselines/BENCH_micro_perf.json
CURRENT=bench_out/BENCH_micro_perf.json
BASELINE_RECOVERY=bench/baselines/BENCH_recovery_mttr.json
CURRENT_RECOVERY=bench_out/BENCH_recovery_mttr.json
BASELINE_PARTITION=bench/baselines/BENCH_partition_availability.json
CURRENT_PARTITION=bench_out/BENCH_partition_availability.json
BASELINE_OVERLOAD=bench/baselines/BENCH_overload_degradation.json
CURRENT_OVERLOAD=bench_out/BENCH_overload_degradation.json
# Tolerated normalized micro slowdown (0.5 = +50%).
THRESHOLD=0.5

for f in "$BENCH_MICRO_PERF" "$BENCH_RECOVERY_MTTR" \
    "$BENCH_PARTITION_AVAILABILITY" "$BENCH_OVERLOAD_DEGRADATION" \
    "$BENCH_COMPARE"; do
  if [ ! -x "$f" ]; then
    echo "perf_gate: missing binary $f (build first)" >&2
    exit 2
  fi
done
for f in "$BASELINE" "$BASELINE_RECOVERY" "$BASELINE_PARTITION" \
    "$BASELINE_OVERLOAD"; do
  if [ ! -f "$f" ]; then
    echo "perf_gate: missing baseline $f" >&2
    exit 2
  fi
done

status=0

# stage BENCH "ARGS" BASELINE CURRENT MODE "UNITS": runs BENCH with
# ARGS (word-split), then compares CURRENT against BASELINE once per
# unit. MODE is bench_compare's gating flag: --threshold=F (normalized)
# or --tolerance=F (exact).
stage() {
  bench=$1 args=$2 baseline=$3 current=$4 mode=$5 units=$6
  rm -f "$current"
  # shellcheck disable=SC2086  # ARGS is a flag list, split on purpose.
  if ! "$bench" $args; then
    echo "perf_gate: $(basename "$bench") exited non-zero" >&2
    exit 1
  fi
  if [ ! -f "$current" ]; then
    echo "perf_gate: $(basename "$bench") wrote no JSON at $current" >&2
    exit 1
  fi
  for unit in $units; do
    if ! "$BENCH_COMPARE" --baseline="$baseline" --current="$current" \
        "$mode" --unit="$unit"; then
      status=1
    fi
  done
}

# Each micro case's value is its median over three repetitions,
# interleaved with every other case's, so a host slowdown that lasts a
# moment lands in one repetition of a few cases and is voted out.
stage "$BENCH_MICRO_PERF" "--benchmark_min_time=0.05 \
--benchmark_repetitions=3 --benchmark_enable_random_interleaving=true \
--benchmark_display_aggregates_only=true" \
  "$BASELINE" "$CURRENT" --threshold="$THRESHOLD" "ns/op"
stage "$BENCH_RECOVERY_MTTR" "--seconds=30" \
  "$BASELINE_RECOVERY" "$CURRENT_RECOVERY" --tolerance=1e-9 "s"
stage "$BENCH_PARTITION_AVAILABILITY" "" \
  "$BASELINE_PARTITION" "$CURRENT_PARTITION" --tolerance=1e-9 "s us"
stage "$BENCH_OVERLOAD_DEGRADATION" "--seconds=10" \
  "$BASELINE_OVERLOAD" "$CURRENT_OVERLOAD" --tolerance=1e-9 "us/txn ms"

exit "$status"
