#!/usr/bin/env python3
"""Same-box A/B of two versions of the program under one benchmark.

    python3 perfbench/ab.py --base REV --work-dir DIR [--change REV]
                            [--workload NAME|all] [--pairs 10]
                            [--seconds S] [--seed N | --held-out]

Run from inside the repository's git work tree. Both sides are unpacked
into WORK_DIR (the base from `git archive REV`, the change from REV or, by
default, from the files of the current work tree that git would commit)
and both get THIS tree's perfbench/ and BENCHMARK.json, so only the
program differs. Each side is built once; then, per workload, PAIRS
interleaved pairs run, alternating which side goes first, pair i using
seed SEED+i on both sides.

For every end-to-end metric the report gives each side's median and
quartiles, the change/base ratio of medians, the share of pairs the
change won (ties count for neither) and a verdict against the metric's
bound from BENCHMARK.json:
  regression   the change's median is worse by more than the bound;
  unresolved   either side's quartile spread exceeds the bound, unless
               the change won every pair;
  better       at least 10 pairs ran, the change won >= 90% of them,
               and the medians differ by more than the base's own
               quartile spread;
  within bound otherwise.
The unscaled wall and CPU values (raw.* in the result file, see README
"Host-speed reference") get rows too, judged against the same bounds;
they inform but never set the exit status.
Simulated-clock metrics are also compared pair by pair through the sim
fingerprint each run records: "sim identical" means every pair matched
bit for bit. Exit status 1 when any metric regressed, else 0. The full
report is written to WORK_DIR/ab-report.json.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_NAME = os.path.basename(HERE)


def git(*args, cwd=None):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True,
                          stdout=subprocess.PIPE).stdout


def unpack_rev(repo, rev, dest):
    data = git("archive", "--format=tar", rev, cwd=repo)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def copy_worktree(repo, dest):
    listing = git("ls-files", "-z", "--cached", "--others",
                  "--exclude-standard", cwd=repo)
    for rel in listing.decode().split("\0"):
        if not rel or not os.path.isfile(os.path.join(repo, rel)):
            continue
        os.makedirs(os.path.join(dest, os.path.dirname(rel)), exist_ok=True)
        shutil.copy2(os.path.join(repo, rel), os.path.join(dest, rel))


def prepare(repo, rev, dest):
    """Unpack one side, keep an existing build tree, install the benchmark."""
    build = os.path.join(dest, ".bench_build")
    keep = os.path.join(os.path.dirname(dest), ".keep-" + os.path.basename(dest))
    if os.path.isdir(build):
        shutil.move(build, keep)
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    if rev is None:
        copy_worktree(repo, dest)
    else:
        unpack_rev(repo, rev, dest)
    shutil.rmtree(os.path.join(dest, BENCH_NAME), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, BENCH_NAME),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(os.path.join(repo, "BENCHMARK.json"), dest)
    if os.path.isdir(keep):
        shutil.move(keep, build)


def run_side(side, workload, seed, seconds):
    env = dict(os.environ, BENCH_COMMIT=side["commit"])
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_NAME, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=side["dir"], env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("ab: %s side failed on %s seed %d" % (side["name"], workload,
                                                        seed))
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(side["dir"], ".bench_out",
                        "result-%s-seed%d-trace0.json" % (workload, seed))
    with open(path) as f:
        detail = json.load(f)
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    metrics.update({k: v["value"] for k, v in detail["metrics"].items()
                    if k.startswith("raw.")})
    return {"metrics": metrics,
            "correct": line["correct"],
            "fingerprint": detail["checks"]["sim_fingerprint"],
            "env": detail["env"]}


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(metric, base, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    share = wins / len(base)
    worse = ((cm - bm) if lower else (bm - cm)) / bm if bm else 0.0
    spread_b = (b3 - b1) / bm if bm else 0.0
    spread_c = (c3 - c1) / cm if cm else 0.0
    if worse > bound:
        word = "regression"
    elif max(spread_b, spread_c) > bound and wins < len(base):
        word = "unresolved"
    elif share >= 0.9 and len(base) >= 10 and abs(cm - bm) > (b3 - b1):
        word = "better"
    else:
        word = "within bound"
    return {"base": [b1, bm, b3], "change": [c1, cm, c3],
            "ratio": cm / bm if bm else float("nan"), "wins": share,
            "spread_base": spread_b, "spread_change": spread_c,
            "verdict": word}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the base")
    ap.add_argument("--change", default=None,
                    help="git revision of the change (default: work tree)")
    ap.add_argument("--work-dir", required=True,
                    help="directory for the two unpacked, built sides")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--held-out", action="store_true")
    args = ap.parse_args()

    repo = git("rev-parse", "--show-toplevel", cwd=HERE).decode().strip()
    with open(os.path.join(repo, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sys.path.insert(0, HERE)
    import run as bench  # the benchmark's own seed constants

    seed = args.seed if args.seed is not None else (
        bench.HELD_OUT_SEED if args.held_out else bench.DEFAULT_SEED)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]

    work = os.path.abspath(args.work_dir)
    sides = []
    for name, rev in (("base", args.base), ("change", args.change)):
        commit = (git("rev-parse", rev, cwd=repo).decode().strip()
                  if rev else "worktree")
        side = {"name": name, "dir": os.path.join(work, name),
                "commit": commit}
        print("ab: preparing %s (%s) in %s" % (name, commit, side["dir"]),
              flush=True)
        prepare(repo, rev, side["dir"])
        subprocess.run([sys.executable, os.path.join(BENCH_NAME, "run.py"),
                        "--build-only"], cwd=side["dir"], check=True)
        sides.append(side)

    report = {"pairs": args.pairs, "seed": seed, "seconds": seconds,
              "base": sides[0]["commit"], "change": sides[1]["commit"],
              "workloads": {}}
    regressed = False
    for wl in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = sides if i % 2 == 0 else sides[::-1]
            for side in order:
                runs[side["name"]].append(run_side(side, wl, seed + i, seconds))
            print("ab: %s pair %d/%d done" % (wl, i + 1, args.pairs),
                  flush=True)
        same_sim = all(b["fingerprint"] == c["fingerprint"]
                       for b, c in zip(runs["base"], runs["change"]))
        rows = {}
        for metric in spec["end_to_end"]:
            n = metric["name"]
            rows[n] = verdict(metric, [r["metrics"][n] for r in runs["base"]],
                              [r["metrics"][n] for r in runs["change"]])
            regressed = regressed or rows[n]["verdict"] == "regression"
        # The unscaled wall and CPU values, judged against the same bounds
        # for information (README: "Host-speed reference").
        for metric in spec["end_to_end"]:
            n = "raw." + metric["name"]
            if n in runs["base"][0]["metrics"]:
                rows[n] = verdict(metric,
                                  [r["metrics"][n] for r in runs["base"]],
                                  [r["metrics"][n] for r in runs["change"]])
        report["workloads"][wl] = {
            "sim_identical": same_sim,
            "all_correct": all(r["correct"] for r in runs["base"] +
                               runs["change"]),
            "env": runs["change"][0]["env"], "metrics": rows}

        print("\n== %s: %d pairs, seeds %d..%d, %s s per run; sim %s; "
              "all correct %s" % (wl, args.pairs, seed, seed + args.pairs - 1,
                                  seconds,
                                  "identical" if same_sim else "DIFFERS",
                                  report["workloads"][wl]["all_correct"]))
        print("%-24s %26s %26s %7s %5s  %s" % (
            "metric", "base q1/median/q3", "change q1/median/q3", "ratio",
            "wins", "verdict"))
        for n, r in rows.items():
            print("%-24s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g %7.3f %4.0f%%  %s"
                  % (n, *r["base"], *r["change"], r["ratio"],
                     100 * r["wins"], r["verdict"]))

    with open(os.path.join(work, "ab-report.json"), "w") as f:
        json.dump(report, f, indent=2)
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
