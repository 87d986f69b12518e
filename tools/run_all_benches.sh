#!/bin/sh
# Regenerates every paper table/figure plus the ablations and
# micro-benchmarks. Used to produce bench_output.txt.
#
# Each bench drops a BENCH_<name>.json into the working directory (the
# repo root).
#
# Failure policy: a bench that exits nonzero aborts the sweep immediately,
# and stale BENCH_*.json from earlier runs are removed up front — so every
# BENCH_*.json left behind comes from this fully green sweep.
set -eu
cd "$(dirname "$0")/.."

# Drop artifacts of previous sweeps before running anything: a bench that
# crashes must not leave its old JSON around as if current.
rm -f BENCH_*.json

ran=0
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "### $b"
  "$b" || {
    status=$?
    echo "FATAL: bench failed with exit $status: $b" >&2
    exit "$status"
  }
  ran=$((ran + 1))
  echo
done

if [ "$ran" -eq 0 ]; then
  echo "FATAL: no bench binaries found under build/bench/ (build them first)" >&2
  exit 1
fi
