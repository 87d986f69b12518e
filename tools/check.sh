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
#
# The seeded gates are ctest labels, not modes of this script. Every
# suite they select is deterministic, so one flake is a bug, not noise:
#   ctest --test-dir build -L chaos --repeat until-fail:3
#   ctest --test-dir build -L frontend --repeat until-fail:3
#   ctest --test-dir build -L multicloud --repeat until-fail:3
#   ctest --test-dir build -L parity     # SHA-256 dispatch parity
#   ctest --test-dir build -L bench      # sim-clock bench bars
# Wall-clock performance is gated by the same-box A/B in perfbench/ab.py.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
MODE="${1:-full}"

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
    echo "usage: tools/check.sh [full|--fast|--asan-smoke|--tsan-smoke|--analyze]" >&2
    exit 2
    ;;
esac
