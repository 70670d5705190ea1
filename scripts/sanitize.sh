#!/usr/bin/env bash
# Sanitizer tier: builds the tree under AddressSanitizer + UndefinedBehavior-
# Sanitizer in build-asan/ and runs every ctest entry outside the `tsan`
# concurrency tier (which also holds the timing-gated *_overhead_smoke
# entries). -fno-sanitize-recover=undefined makes any UB report abort, so it
# fails the test that reached it. ThreadSanitizer is the other tier:
# cmake -B build-tsan -S . -DZC_SANITIZE=thread, then ctest -L tsan.
#
#   scripts/sanitize.sh
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc)"

cmake -B build-asan -S . -DZC_SANITIZE=address,undefined \
  -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan -LE tsan --output-on-failure -j "$JOBS"
