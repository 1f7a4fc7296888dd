#!/usr/bin/env bash
# Sanitizer gate: builds the tree once per sanitizer (FCM_SANITIZE=address,
# then undefined) into its own build directory and runs the tier1 ctest
# label under each. Usage:
#   tools/check.sh [address undefined ...]
# With no arguments, runs address and undefined. Exits nonzero on the first
# failing build or test run. Build dirs are kept (build-asan/, build-ubsan/,
# build-tsan/) so incremental re-runs are cheap. UBSan is built with
# -fno-sanitize-recover, so any undefined-behaviour report fails the run.
set -euo pipefail

cd "$(dirname "$0")/.."

sanitizers=("$@")
if [ ${#sanitizers[@]} -eq 0 ]; then
  sanitizers=(address undefined)
fi

jobs="$(nproc 2>/dev/null || echo 2)"

for sanitizer in "${sanitizers[@]}"; do
  case "$sanitizer" in
    address)   dir=build-asan ;;
    undefined) dir=build-ubsan ;;
    thread)    dir=build-tsan ;;
    *) echo "unknown sanitizer '$sanitizer' (want address|undefined|thread)" >&2
       exit 2 ;;
  esac
  echo "=== FCM_SANITIZE=$sanitizer -> $dir ==="
  cmake -B "$dir" -S . -DFCM_SANITIZE="$sanitizer" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" -L tier1 --output-on-failure -j "$jobs"
done

echo "=== all sanitizer runs passed: ${sanitizers[*]} ==="
