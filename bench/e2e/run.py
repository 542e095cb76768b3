#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 bench/e2e/run.py [--workload W ...] [--seed S] [--seconds T]
                             [--trace [0|1]] [--repeat N] [--smoke]

Run from the repository root. Builds the standalone Release project in
bench/e2e into bench_out/e2e/build, then runs each selected workload
(default: all four) in a fresh process, alternating the workload order
across repeats. Prints one `workload metric value unit` line per metric
(median, with quartiles when repeated), writes bench_out/e2e/BENCH_e2e.json
and, as the last line of stdout, one JSON result object. With --trace 0 the
metrics are BENCHMARK.json's end-to-end metrics; with --trace 1 its
per-layer metrics. Exits non-zero when any output check fails.

--smoke runs every workload at shrunk sizes, untraced and traced, and
checks that each metric BENCHMARK.json lists is emitted (the ctest smoke
test); --binary uses an already-built e2e_bench instead of building.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["b2w_pstore", "b2w_static_k1", "kv_rebalance", "capacity_plan"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds e2e_bench; output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2e_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2e_bench")


def run_once(binary, workload, seed, seconds, trace, smoke, out_dir):
    cmd = [binary, "--workload=" + workload, "--seconds=%g" % seconds,
           "--trace=%d" % trace, "--out=" + out_dir]
    if seed is not None:
        cmd.append("--seed=%d" % seed)
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(proc.stdout)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def write_bench_json(path, cases):
    doc = {
        "schema_version": 1,
        "bench": "e2e",
        "kind": "metrics",
        "run": {"build_type": "optimized",
                "hardware_threads": os.cpu_count() or 0},
        "cases": cases,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary")
    parser.add_argument("--out", default=os.path.join("bench_out", "e2e"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    expected = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }

    try:
        binary = args.binary or build(os.path.join("bench_out", "e2e",
                                                   "build"))
    except (OSError, subprocess.CalledProcessError) as e:
        log("FAILED: build: %s" % e)
        return 1
    workloads = args.workload or WORKLOADS
    modes = [0, 1] if args.smoke else [args.trace]
    seconds = 0 if args.smoke else (
        args.seconds if args.seconds is not None else spec["run_seconds"])

    failures = []
    attempted = failed = 0
    # (workload, mode) -> metric -> values over repeats
    values = {}
    fingerprints = {}
    for r in range(args.repeat):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for workload in order:
            for mode in modes:
                res = run_once(binary, workload, args.seed, seconds, mode,
                               args.smoke, args.out)
                attempted += res["attempted"]
                failed += res["failed"]
                if not res["correct"]:
                    failures.append("%s: output checks failed" % workload)
                fingerprints.setdefault(workload, set()).add(
                    res["fingerprint"])
                got = set(res["metrics"])
                want = set(expected[mode])
                if got != want:
                    failures.append("%s: metrics %s missing, %s unexpected" % (
                        workload, sorted(want - got), sorted(got - want)))
                for name, value in res["metrics"].items():
                    values.setdefault((workload, mode), {}).setdefault(
                        name, []).append(value)
    for workload, fps in fingerprints.items():
        if len(fps) != 1:
            failures.append("%s: virtual outputs differ between runs" %
                            workload)

    cases = []
    result_metrics = {}
    for (workload, mode), metrics in values.items():
        for name in expected[mode]:
            if name not in metrics:
                continue
            q1, med, q3 = quartiles(metrics[name])
            unit = units[name]
            line = "%s %s %.6g %s" % (workload, name, med, unit)
            if args.repeat > 1:
                line += "  (q1 %.6g, q3 %.6g)" % (q1, q3)
            print(line)
            cases.append({"name": "%s/%s" % (workload, name), "value": med,
                          "unit": unit})
            key = name if len(workloads) == 1 else "%s/%s" % (workload, name)
            result_metrics[key] = {"value": med, "unit": unit}
    write_bench_json(os.path.join(args.out, "BENCH_e2e.json"), cases)

    for f in failures:
        log("FAILED: " + f)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
