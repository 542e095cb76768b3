#!/usr/bin/env bash
# Same-seed determinism over the whole scenario table: for every
# scenario that `chaos_run --list-scenarios` prints, run chaos_run twice
# untraced and twice with --trace-sample=0.1 (sampled txn traces and the
# Chrome trace_event JSON join the artifacts), each with --out, and
# require each pair's artifacts (metrics JSON/CSV, span trace, event
# stream, fault trace, plus the trace files when traced) to be
# byte-identical. A scenario added to the table is covered without
# touching this script; an empty list or any failing run fails it.
#
# Usage: [CHAOS_RUN=path/to/chaos_run] [SEED=N] tools/check_determinism.sh
# Exits 0 on byte-identical runs, 1 otherwise.
set -u

CHAOS_RUN="${CHAOS_RUN:-build/examples/chaos_run}"
SEED="${SEED:-42}"

if [ ! -x "$CHAOS_RUN" ]; then
  echo "check_determinism: $CHAOS_RUN not found or not executable" >&2
  echo "build first: cmake --build build" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

if ! listing=$("$CHAOS_RUN" --list-scenarios); then
  echo "check_determinism: $CHAOS_RUN --list-scenarios failed" >&2
  exit 1
fi
scenarios=$(printf '%s\n' "$listing" | awk '{print $1}')
if [ -z "$scenarios" ]; then
  echo "check_determinism: $CHAOS_RUN --list-scenarios listed nothing" >&2
  exit 1
fi

status=0
for scenario in $scenarios; do
  for mode in untraced traced; do
    flags=""
    [ "$mode" = traced ] && flags="--trace-sample=0.1"
    for run in 1 2; do
      out="$workdir/$scenario.$mode.$run"
      if ! "$CHAOS_RUN" --scenario="$scenario" --seed="$SEED" $flags \
           --out="$out" > "$out.stdout" 2>&1; then
        echo "check_determinism: $scenario ($mode) run $run FAILED;" \
             "tail of output:" >&2
        tail -20 "$out.stdout" >&2
        status=1
      fi
    done
    a="$workdir/$scenario.$mode.1"
    b="$workdir/$scenario.$mode.2"
    [ -d "$a" ] && [ -d "$b" ] || continue
    if diff -r "$a" "$b" > "$workdir/diff.out" 2>&1; then
      echo "check_determinism: OK — $(ls "$a" | wc -l | tr -d ' ')" \
           "artifacts byte-identical (seed $SEED, $scenario, $mode)"
    else
      echo "check_determinism: MISMATCH between same-seed $scenario" \
           "($mode) runs:" >&2
      cat "$workdir/diff.out" >&2
      status=1
    fi
  done
done
exit "$status"
