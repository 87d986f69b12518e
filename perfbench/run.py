#!/usr/bin/env python3
"""Repository benchmark: build the program from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload follower_bft --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each
    python3 perfbench/run.py --workload tenant_stream --held-out
    python3 perfbench/run.py --build-only

The first call configures and builds perfbench/ (the program's libraries
from src/ plus the benchmark program in perfbench/cpp) into .bench_build/. Each
workload then runs in its own process; its detailed, environment-stamped
result goes to .bench_out/, a table goes to standard output, and the last
line of standard output is the one-line JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY_NAME = "cbft_perfbench"
BUILD_TYPE = "RelWithDebInfo"

# The seed every number in a change is developed against, and the seed a
# claim is re-checked on afterwards; never tune against the held-out seed.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

# A workload process must end well within the 180 s a run may take.
PROCESS_TIMEOUT_S = 170


def build_dir():
    # CARGO_TARGET_DIR names the benchmark build directory when set.
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step; on failure show its output and stop."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-6000:])
        log("perfbench: build step failed: " + " ".join(cmd))
        sys.exit(1)


def build():
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", bdir, "-j", jobs, "--target", BINARY_NAME])
    return os.path.join(bdir, BINARY_NAME)


def source_id():
    """Commit to stamp results with: BENCH_COMMIT when given, else a digest
    of the program's sources (the benchmark's checkout is not a git
    repository)."""
    if os.environ.get("BENCH_COMMIT"):
        return os.environ["BENCH_COMMIT"]
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, spec, workload, seed, seconds, trace, commit):
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                       % (workload, seed, trace))
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out,
           "--trace-dir", OUT_DIR, "--commit", commit]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s exceeded %d s" % (workload, PROCESS_TIMEOUT_S))
        sys.exit(1)
    if proc.returncode != 0 or not os.path.exists(out):
        log("perfbench: %s exited with status %d" % (workload, proc.returncode))
        sys.exit(1)
    with open(out) as f:
        result = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        log("perfbench: %s did not report %s" % (workload, ", ".join(missing)))
        sys.exit(1)
    result["all_metrics"] = result["metrics"]
    result["metrics"] = {n: result["metrics"][n] for n in wanted}
    result["result_file"] = os.path.relpath(out, ROOT)
    return result


def print_table(result):
    env = result["env"]
    print("== %s (%s loop), seed %d, trace %d" % (
        result["workload"], result["loop"], result["seed"], result["trace"]))
    print("   env: %s, nproc %d, sha256 %s, %s, %s, commit %s" % (
        env["cpu_model"], env["nproc"], env["sha256_backend"],
        env["build_type"], env["compiler"], env["commit"]))
    checks = result["checks"]
    print("   correct %s: %d attempted, %d failed; sim repeatable %s; "
          "generator lateness %s s; %d untraced + %d traced passes" % (
              result["correct"], result["attempted"], result["failed"],
              checks["sim_repeatable"], checks["generator_lateness_s"],
              checks["untraced_passes"], checks["traced_passes"]))
    for name, m in result["all_metrics"].items():
        print("   %-30s %14.6g %-7s [%s clock, %d samples]" % (
            name, m["value"], m["unit"], m["clock"], m["samples"]))
    print("   details: %s" % result["result_file"])


def finite(v):
    # A failed request counts as +inf latency; JSON has no infinity.
    return v if math.isfinite(v) else 1e300


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload",
                    help="a workload named in BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--held-out", action="store_true",
                    help="use the held-out seed %d" % HELD_OUT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build-only", action="store_true",
                    help="build the benchmark and exit")
    args = ap.parse_args()
    if args.build_only:
        build()
        return
    if args.workload is None:
        ap.error("--workload is required")

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        log("perfbench: unknown workload %r (have: %s)"
            % (args.workload, ", ".join(names)))
        sys.exit(2)
    seed = HELD_OUT_SEED if args.held_out else args.seed
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    binary = build()
    commit = source_id()
    workloads = names if args.workload == "all" else [args.workload]
    results = [run_workload(binary, spec, w, seed, seconds, args.trace, commit)
               for w in workloads]
    for r in results:
        print_table(r)

    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "/"
        for name, m in r["metrics"].items():
            metrics[prefix + name] = {"value": finite(m["value"]),
                                      "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
