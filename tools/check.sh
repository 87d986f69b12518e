#!/usr/bin/env bash
# ClusterBFT analysis driver: configure -> build -> ctest -> lint, in both
# the normal and the sanitizer presets. This is the command CI (and a
# cautious human) should run before merging.
#
# Usage:
#   tools/check.sh               full pass: normal build + tests + lint,
#                                then the asan-ubsan preset + tests,
#                                then a hardened (-Werror) build
#   tools/check.sh --fast        normal build + tests + lint only
#   tools/check.sh --asan-smoke  build & run only the asan_smoke target
#                                under ASan+UBSan (used by the
#                                `asan_ubsan_smoke` ctest)
#   tools/check.sh --tsan-smoke  build & run only the tsan_smoke target
#                                (parallel task-execution engine, plus a
#                                full script driven through the loopback
#                                control-plane seam) under ThreadSanitizer
#                                (used by the `tsan_smoke` ctest)
#   tools/check.sh --bench-compare
#                                perf regression gate: build + run the
#                                micro benches and diff BENCH_micro.json
#                                against tools/bench_baseline.json,
#                                failing on any wall-clock metric more
#                                than BENCH_THRESHOLD (default 25) percent
#                                slower than the committed baseline
#   tools/check.sh --chaos       chaos gate: build the fault-storm sweep
#                                and the crash-recovery suite, then run
#                                them three consecutive times — every
#                                storm is seeded and deterministic, so a
#                                single flake is a safety bug, not noise
#   tools/check.sh --frontend    multi-tenant gate: the frontend suite
#                                (N concurrent sessions == serial bit
#                                for bit, cache-hit byte-identity,
#                                multi-session crash recovery) plus the
#                                concurrent chaos storms (>= 2 sessions
#                                in flight), three consecutive passes
#   tools/check.sh --multicloud  multi-cloud gate: the placement/failover
#                                suite (seam bit-identity, policy
#                                placement, cross-cloud failover,
#                                double-commit guard, failover crash
#                                recovery) plus the whole-cloud-outage
#                                chaos mix and the bench_multicloud
#                                exit-code bars, three consecutive passes
#   tools/check.sh --parity      SHA-256 dispatch parity gate: build the
#                                digest_parity transcript generator and
#                                run the `digest_parity` ctest (label:
#                                parity; also part of the plain ctest
#                                run): the 24-seed verification-point
#                                sweep once with the default (auto-
#                                dispatched) SHA-256 backend and once
#                                with CLUSTERBFT_SHA256_BACKEND=scalar —
#                                the transcripts must be identical and
#                                hash to tools/digest_parity.sha256, so
#                                canonical bytes stay pinned across
#                                commits too
#   tools/check.sh --analyze     static-analysis gate: the regex
#                                determinism lint over src, then the
#                                AST-grounded analyzer (digest-
#                                reachability) diffed against its
#                                committed baseline
#                                (tools/analyze/baseline.json). Uses the
#                                clang frontend when libclang is
#                                importable, the text frontend
#                                otherwise; with clang++ installed it
#                                also type-checks the thread-safety
#                                annotations (-Werror=thread-safety)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
MODE="${1:-full}"

# Seeded-suite gate: build the given targets, then run the ctest subset
# matching REGEX three consecutive times. Every suite it runs is seeded
# and deterministic, so a single flake is a bug, not noise.
#   run_seeded_gate NAME REGEX TARGET...
run_seeded_gate() {
  local name="$1" regex="$2"
  shift 2
  echo "== $name gate: build $* =="
  cmake -S "$ROOT" -B "$ROOT/build" >/dev/null
  cmake --build "$ROOT/build" --target "$@" -j "$JOBS"
  for i in 1 2 3; do
    echo "== $name gate: pass $i/3 =="
    ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS" \
      -R "$regex"
  done
}

run_lint() {
  if command -v python3 >/dev/null 2>&1; then
    echo "== determinism lint =="
    python3 "$ROOT/tools/lint/determinism_lint.py" "$ROOT/src"
  else
    echo "== determinism lint skipped (python3 not found) =="
  fi
}

case "$MODE" in
  --asan-smoke)
    # Minimal sanitized build: just the smoke target and the libraries it
    # needs, in its own tree so it never disturbs a full preset build.
    BUILD="$ROOT/build-asan-smoke"
    cmake -S "$ROOT" -B "$BUILD" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCLUSTERBFT_SANITIZE=address \
      >/dev/null
    cmake --build "$BUILD" --target asan_smoke -j "$JOBS"
    exec "$BUILD/tools/asan_smoke"
    ;;

  --tsan-smoke)
    # Same idea for the worker pool: build only the parallel-engine smoke
    # under TSan in a dedicated tree and run it. The smoke includes an
    # end-to-end controller run over the loopback transport, so a data
    # race anywhere on the protocol seam (tracker hooks firing from pool
    # payload commits included) is caught here.
    BUILD="$ROOT/build-tsan-smoke"
    cmake -S "$ROOT" -B "$BUILD" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCLUSTERBFT_SANITIZE=thread \
      >/dev/null
    cmake --build "$BUILD" --target tsan_smoke -j "$JOBS"
    exec "$BUILD/tools/tsan_smoke"
    ;;

  --bench-compare)
    # Perf regression gate. Always measures fresh (never trusts a stale
    # bench_results.json) so the diff reflects the tree as it is now; the
    # committed baseline only moves deliberately, with a PR that changes
    # performance.
    command -v python3 >/dev/null 2>&1 || {
      echo "bench-compare requires python3" >&2; exit 2; }
    echo "== bench regression gate: build + run bench_micro (best of 3) =="
    cmake -S "$ROOT" -B "$ROOT/build" >/dev/null
    cmake --build "$ROOT/build" --target bench_micro bench_checkpoint \
      -j "$JOBS"
    # Three independent runs; the gate compares the per-metric best, so a
    # load spike on a shared machine cannot fake a regression.
    for i in 1 2 3; do
      (cd "$ROOT/build/bench" && ./bench_micro >/dev/null &&
       mv BENCH_micro.json "BENCH_micro.run$i.json")
    done
    # The checkpoint ablation is simulated time, so one run is exact; it
    # enforces its own bars (>=1.3x under faults, strictly fewer adaptive
    # replicas) by exit code, and its sim-second rows ride along in the
    # diff as informational context.
    echo "== bench regression gate: checkpoint + dynamic-replication bars =="
    (cd "$ROOT/build/bench" && ./bench_checkpoint)
    echo "== bench regression gate: diff against committed baseline =="
    python3 "$ROOT/tools/bench_compare.py" \
      "$ROOT/build/bench/BENCH_micro.run1.json" \
      "$ROOT/build/bench/BENCH_micro.run2.json" \
      "$ROOT/build/bench/BENCH_micro.run3.json" \
      "$ROOT/build/bench/BENCH_checkpoint.json" \
      --baseline "$ROOT/tools/bench_baseline.json" \
      --threshold "${BENCH_THRESHOLD:-25}"
    ;;

  --chaos)
    # Chaos gate: the whole point of a seeded fault model is that these
    # suites are bit-reproducible — three consecutive clean passes is the
    # bar the safety invariants are held to.
    run_seeded_gate chaos 'ChaosSweep|CrashRecovery' \
      chaos_sweep_test crash_recovery_test
    echo "check.sh: chaos gate OK (3/3 clean)"
    ;;

  --frontend)
    # Multi-tenant gate: the front end's whole correctness story is
    # "concurrent == serial, bit for bit" — N interleaved sessions (and
    # cache adoptions) must reproduce serial outputs, metrics and audit
    # transcripts, including across a mid-flight crash + recovery, and
    # the chaos storms must hold per-session safety with >= 2 sessions
    # concurrently in flight (the ConcurrentChaosSweep suite). All of it
    # is seeded and deterministic, so the bar is three consecutive clean
    # passes, same as the chaos gate.
    run_seeded_gate frontend 'Frontend|ConcurrentChaosSweep|CrashRecovery' \
      frontend_test chaos_sweep_test crash_recovery_test
    echo "check.sh: frontend gate OK (3/3 clean)"
    ;;

  --multicloud)
    # Multi-cloud gate: placement policies, cross-cloud failover, the
    # healed-cloud double-commit guard, the crash sweep straddling the
    # kCloudFailover record, and the CloudOutage chaos mix — all seeded
    # and deterministic, so the bar is three consecutive clean passes —
    # plus the bench_multicloud exit-code bars (failover completes the
    # Fig. 9 workload where the pinned policy reports pool exhaustion).
    run_seeded_gate multicloud \
      'MultiCloud|PlacementOrder|CloudOutage|CloudFailover' \
      multicloud_test chaos_sweep_test crash_recovery_test bench_multicloud
    echo "== multicloud gate: bench_multicloud bars =="
    (cd "$ROOT/build/bench" && ./bench_multicloud)
    echo "check.sh: multicloud gate OK (3/3 clean)"
    ;;

  --parity)
    # SHA-256 dispatch parity gate: the `digest_parity` ctest (label:
    # parity, tools/parity_check.cmake) runs the 24-seed verification-
    # point transcript under the default dispatch and the scalar backend,
    # and requires identical transcripts and the golden hash.
    echo "== parity gate: build digest_parity =="
    cmake -S "$ROOT" -B "$ROOT/build" >/dev/null
    cmake --build "$ROOT/build" --target digest_parity -j "$JOBS"
    ctest --test-dir "$ROOT/build" --output-on-failure -L parity
    echo "check.sh: parity gate OK"
    ;;

  --analyze)
    command -v python3 >/dev/null 2>&1 || {
      echo "--analyze requires python3" >&2; exit 2; }
    run_lint
    echo "== AST-grounded analyzer: digest-reachability vs baseline =="
    # Configure (cheap when already configured) so compile_commands.json
    # exists for the clang frontend; the text frontend works regardless.
    cmake -S "$ROOT" -B "$ROOT/build" >/dev/null
    python3 "$ROOT/tools/analyze/report.py" \
      --compile-commands "$ROOT/build/compile_commands.json" "$ROOT/src"
    if command -v clang++ >/dev/null 2>&1; then
      echo "== thread-safety analysis: clang -Werror=thread-safety =="
      # The hardened preset carries the -Wthread-safety flags; a clang
      # configure of it type-checks every CLUSTERBFT_GUARDED_BY /
      # REQUIRES annotation in the tree.
      cmake --preset hardened -S "$ROOT" \
        -DCMAKE_CXX_COMPILER=clang++ >/dev/null
      cmake --build --preset hardened -j "$JOBS"
    else
      echo "== thread-safety analysis skipped (clang++ not found; the" \
           "annotations compile away under other compilers) =="
    fi
    echo "check.sh: analyze gate OK"
    ;;

  --fast|full)
    echo "== normal preset: configure + build =="
    cmake -S "$ROOT" -B "$ROOT/build"
    cmake --build "$ROOT/build" -j "$JOBS"
    echo "== normal preset: ctest =="
    ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"
    run_lint
    if [ "$MODE" = "--fast" ]; then
      echo "check.sh: fast pass OK"
      exit 0
    fi

    echo "== asan-ubsan preset: configure + build =="
    cmake --preset asan-ubsan -S "$ROOT"
    cmake --build --preset asan-ubsan -j "$JOBS"
    echo "== asan-ubsan preset: ctest =="
    (cd "$ROOT" && ctest --preset asan-ubsan -j "$JOBS")

    echo "== hardened preset: configure + build (-Werror) =="
    cmake --preset hardened -S "$ROOT"
    cmake --build --preset hardened -j "$JOBS"

    echo "check.sh: full pass OK"
    ;;

  *)
    echo "usage: tools/check.sh [--fast|--asan-smoke|--tsan-smoke|--bench-compare|--chaos|--frontend|--multicloud|--parity|--analyze]" >&2
    exit 2
    ;;
esac
