#!/bin/sh
# Perf regression gate (DESIGN.md §12): run the microbenchmark suite,
# then diff its JSON output against the committed baseline trajectory.
# A second stage runs bench_recovery_mttr and gates its deterministic
# virtual-clock MTTR grid (unit "s") against its own committed
# trajectory — so recovery-path regressions (slower replay planning,
# scrubbing overhead) trip the gate the same way hot-path ns/op
# regressions do. A third stage runs bench_partition_availability and
# gates both its outage grid (unit "s": dark/recovery seconds per
# partition x lease cell) and its latency percentiles (unit "us") the
# same deterministic way. A fourth stage runs bench_overload_degradation
# and gates its goodput grid (unit "us/txn": inverse goodput, so a
# goodput collapse raises the value) plus its p99 grid (unit "ms").
# Exits non-zero when any tracked case regresses past the threshold or
# vanishes from the suite.
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
#   THRESHOLD            tolerated normalized slowdown (default 0.5 = +50%)
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

rm -f "$CURRENT"
# Each case's value is its median over three repetitions, interleaved
# with every other case's, so a host slowdown that lasts a moment
# lands in one repetition of a few cases and is voted out.
if ! "$BENCH_MICRO_PERF" --benchmark_min_time=0.05 \
    --benchmark_repetitions=3 --benchmark_enable_random_interleaving=true \
    --benchmark_display_aggregates_only=true; then
  echo "perf_gate: bench_micro_perf exited non-zero" >&2
  exit 1
fi
if [ ! -f "$CURRENT" ]; then
  echo "perf_gate: bench_micro_perf wrote no JSON at $CURRENT" >&2
  exit 1
fi
if ! "$BENCH_COMPARE" --baseline="$BASELINE" --current="$CURRENT" \
    --threshold="$THRESHOLD"; then
  status=1
fi

rm -f "$CURRENT_RECOVERY"
if ! "$BENCH_RECOVERY_MTTR" --seconds=30; then
  echo "perf_gate: bench_recovery_mttr exited non-zero" >&2
  exit 1
fi
if [ ! -f "$CURRENT_RECOVERY" ]; then
  echo "perf_gate: bench_recovery_mttr wrote no JSON at $CURRENT_RECOVERY" >&2
  exit 1
fi
# The MTTR grid is virtual-clock deterministic (same seed, same clock),
# so no median normalization: any drift is a real behavior change.
if ! "$BENCH_COMPARE" --baseline="$BASELINE_RECOVERY" \
    --current="$CURRENT_RECOVERY" --threshold="$THRESHOLD" \
    --unit=s --no-normalize; then
  status=1
fi

rm -f "$CURRENT_PARTITION"
if ! "$BENCH_PARTITION_AVAILABILITY"; then
  echo "perf_gate: bench_partition_availability exited non-zero" >&2
  exit 1
fi
if [ ! -f "$CURRENT_PARTITION" ]; then
  echo "perf_gate: bench_partition_availability wrote no JSON at" \
       "$CURRENT_PARTITION" >&2
  exit 1
fi
# Also virtual-clock deterministic; the grid records two units — outage
# seconds per cell and the nominal cell's latency percentiles — so the
# gate compares each unit separately.
if ! "$BENCH_COMPARE" --baseline="$BASELINE_PARTITION" \
    --current="$CURRENT_PARTITION" --threshold="$THRESHOLD" \
    --unit=s --no-normalize; then
  status=1
fi
if ! "$BENCH_COMPARE" --baseline="$BASELINE_PARTITION" \
    --current="$CURRENT_PARTITION" --threshold="$THRESHOLD" \
    --unit=us --no-normalize; then
  status=1
fi

rm -f "$CURRENT_OVERLOAD"
if ! "$BENCH_OVERLOAD_DEGRADATION" --seconds=10; then
  echo "perf_gate: bench_overload_degradation exited non-zero" >&2
  exit 1
fi
if [ ! -f "$CURRENT_OVERLOAD" ]; then
  echo "perf_gate: bench_overload_degradation wrote no JSON at" \
       "$CURRENT_OVERLOAD" >&2
  exit 1
fi
# Virtual-clock deterministic like the MTTR grid. Goodput is tracked as
# us per good transaction (a goodput drop raises the value), p99 in ms;
# both gated exactly, no machine-speed normalization. The baseline was
# recorded with --seconds=10, matching the invocation above.
if ! "$BENCH_COMPARE" --baseline="$BASELINE_OVERLOAD" \
    --current="$CURRENT_OVERLOAD" --threshold="$THRESHOLD" \
    --unit=us/txn --no-normalize; then
  status=1
fi
if ! "$BENCH_COMPARE" --baseline="$BASELINE_OVERLOAD" \
    --current="$CURRENT_OVERLOAD" --threshold="$THRESHOLD" \
    --unit=ms --no-normalize; then
  status=1
fi

exit "$status"
