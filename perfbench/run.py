#!/usr/bin/env python3
"""End-to-end benchmark of the SQE library: one workload, one seed, one run.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Steps, each in its own process:
  1. build    cmake-configure and build perfbench/ (the library from src/)
              into $CARGO_TARGET_DIR or .bench_build (incremental);
  2. inputs   generate the workload's corpus once per checkout and its
              query list once per seed, under <build dir>/data;
  3. set-up   --trace 0 only: SETUP_SAMPLES fresh processes that only set
              up, so setup_s is a median and not one cold reading;
  4. measure  a fresh process sets up once more and runs the timed phase.

The report goes to stdout; its last line is the result JSON:
  {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
Exit status is non-zero, without a result line, when any step fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("expand_dense_kb", "retrieve_1m", "serve_zipf_swap")
SETUP_SAMPLES = 6
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_step(cmd, what, capture=False):
    """Runs cmd; on failure prints its output and exits non-zero."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        log(f"perfbench: {what} failed (exit {proc.returncode})")
        sys.exit(1)
    return proc.stdout if capture else None


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", cmake_dir,
                  "-DCMAKE_BUILD_TYPE=Release"], "configure")
    run_step(["cmake", "--build", cmake_dir, "-j", "4", "--target",
              "perfbench"], "build")
    return os.path.join(cmake_dir, "perfbench")


def last_json(output, what):
    lines = [l for l in output.splitlines() if l.startswith("{")]
    if not lines:
        log(output[-4000:])
        log(f"perfbench: {what} printed no result")
        sys.exit(1)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        sys.exit(1)
    build_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(build_dir)

    data = os.path.join(build_dir, "data", args.workload)
    common = ["--workload", args.workload, "--data", data]
    if not os.path.exists(os.path.join(data, "corpus.done")):
        run_step([binary, "gen-corpus"] + common, "corpus generation")
    seeded = common + ["--seed", str(args.seed)]
    if not os.path.exists(os.path.join(data, f"queries-{args.seed}.tsv")):
        run_step([binary, "gen-queries"] + seeded, "query generation")

    measure = [binary, "run"] + seeded + [
        "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup_samples = []
    if args.trace == 0:
        for i in range(SETUP_SAMPLES):
            out = run_step(measure + ["--setup-only"], "set-up", capture=True)
            setup_samples.append(last_json(out, "set-up")["setup_s"])
    if args.trace == 1:
        spans = args.spans or os.path.join(
            build_dir, "spans", f"{args.workload}-{args.seed}.tsv")
        os.makedirs(os.path.dirname(os.path.abspath(spans)), exist_ok=True)
        measure += ["--spans", spans]
    out = run_step(measure, "measurement", capture=True)
    result = last_json(out, "measurement")
    print("\n".join(l for l in out.splitlines() if not l.startswith("{")))

    metrics = result["metrics"]
    if args.trace == 0:
        setup_samples.append(metrics["setup_s"]["value"])
        metrics["setup_s"] = {"value": statistics.median(setup_samples),
                              "unit": "s", "samples": len(setup_samples)}
        print(f"{args.workload} seed={args.seed} end-to-end metrics:")
    else:
        print(f"{args.workload} seed={args.seed} per-layer metrics:")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:6s} "
              f"(n={m['samples']})")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }
    print(json.dumps(final), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
