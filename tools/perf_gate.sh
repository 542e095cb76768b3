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
# Environment overrides (defaults assume running from the repo root
# with the standard ./build tree):
#   BENCH_MICRO_PERF     path to the bench_micro_perf binary
#   BENCH_RECOVERY_MTTR  path to the bench_recovery_mttr binary
#   BENCH_COMPARE        path to the bench_compare binary
#   BASELINE             committed micro-perf trajectory JSON
#   CURRENT              where bench_micro_perf writes its JSON
#   BASELINE_RECOVERY    committed recovery-MTTR trajectory JSON
#   CURRENT_RECOVERY     where bench_recovery_mttr writes its JSON
#   BENCH_PARTITION_AVAILABILITY  path to that bench binary
#   BASELINE_PARTITION   committed partition-availability trajectory JSON
#   CURRENT_PARTITION    where bench_partition_availability writes JSON
#   BENCH_OVERLOAD_DEGRADATION  path to that bench binary
#   BASELINE_OVERLOAD    committed overload-degradation trajectory JSON
#   CURRENT_OVERLOAD     where bench_overload_degradation writes JSON
#   THRESHOLD            tolerated normalized micro slowdown (default 0.5 = +50%)
set -u

BENCH_MICRO_PERF="${BENCH_MICRO_PERF:-build/bench/bench_micro_perf}"
BENCH_RECOVERY_MTTR="${BENCH_RECOVERY_MTTR:-build/bench/bench_recovery_mttr}"
BENCH_COMPARE="${BENCH_COMPARE:-build/tools/bench_compare}"
BASELINE="${BASELINE:-bench/baselines/BENCH_micro_perf.json}"
CURRENT="${CURRENT:-bench_out/BENCH_micro_perf.json}"
BASELINE_RECOVERY="${BASELINE_RECOVERY:-bench/baselines/BENCH_recovery_mttr.json}"
CURRENT_RECOVERY="${CURRENT_RECOVERY:-bench_out/BENCH_recovery_mttr.json}"
BENCH_PARTITION_AVAILABILITY="${BENCH_PARTITION_AVAILABILITY:-build/bench/bench_partition_availability}"
BASELINE_PARTITION="${BASELINE_PARTITION:-bench/baselines/BENCH_partition_availability.json}"
CURRENT_PARTITION="${CURRENT_PARTITION:-bench_out/BENCH_partition_availability.json}"
BENCH_OVERLOAD_DEGRADATION="${BENCH_OVERLOAD_DEGRADATION:-build/bench/bench_overload_degradation}"
BASELINE_OVERLOAD="${BASELINE_OVERLOAD:-bench/baselines/BENCH_overload_degradation.json}"
CURRENT_OVERLOAD="${CURRENT_OVERLOAD:-bench_out/BENCH_overload_degradation.json}"
THRESHOLD="${THRESHOLD:-0.5}"

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
