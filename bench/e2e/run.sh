#!/usr/bin/env bash
# Builds the end-to-end benchmark into <repo>/build-e2e and runs it.
#
#   bench/e2e/run.sh --workload rank-p1024 --seed 1 --seconds 10 --trace 0
#   bench/e2e/run.sh --workload all --repeat 5 --out baseline.json
#   bench/e2e/run.sh --workload all --trace 1 --trace-file t.json
#
# Build output goes to stderr, so the last line of stdout is the result
# JSON. See bench/e2e/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

jobs="$(nproc 2>/dev/null || echo 1)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target qsm_e2e -j "$jobs" >&2

QSM_E2E_GIT_REV="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export QSM_E2E_GIT_REV
exec "$build/qsm_e2e" "$@"
