#!/usr/bin/env bash
# Quick pre-commit check: configure + build + the `smoke`-labelled test
# tier (sub-50 ms unit suites; see tests/CMakeLists.txt). The full suite is
# `ctest` with no -L filter — run it before merging; this script is the
# seconds-scale inner loop.
#
#   scripts/check.sh            # build/ next to the sources
#   BUILD_DIR=out scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" -L smoke --output-on-failure -j

# Sweep determinism at the CLI: the same grid at --jobs 1 and --jobs 2 must
# print the same rows and plan-cache totals. Only the summary line's job
# count and wall time may differ, so that line is dropped before the diff.
sweep_rows() {
  "$BUILD_DIR"/examples/comm_explorer \
    --sweep "bench=figure1;experiment=all;procs=4" --jobs "$1" | grep -v ' s wall; '
}
serial="$(sweep_rows 1)" && parallel="$(sweep_rows 2)" \
  || { echo "check: FAILED — sweep exited non-zero"; exit 1; }
diff <(echo "$serial") <(echo "$parallel") \
  || { echo "check: FAILED — --jobs 2 sweep output differs from --jobs 1"; exit 1; }

# Timeline heatmap end to end: a traced run with the windowed telemetry
# sink attached must print conserved channel totals.
"$BUILD_DIR"/examples/comm_explorer \
  --bench figure1 --experiment pl --procs 4 --timeline=16 \
  | grep -q 'totals (s):' \
  || { echo "check: FAILED — timeline heatmap missing its totals line"; exit 1; }

# Scale probe: one table benchmark on a 1024-processor partition under the
# event-driven engine core, diffed against the 64-processor run. The
# partition-invariant counts (static, dynamic, reductions) must be
# identical, the message count must scale up with the mesh, and the
# converged residual must hold (the partition only changes the FP
# summation association, never the result): "counts scale, checksums
# hold". The bitwise event-vs-lockstep contract is the engine_event_test
# suite's job; this probes the report surface end to end at scale.
run_scale() {
  "$BUILD_DIR"/examples/zplc --builtin tomcatv --level=pl --procs="$1" \
    --set n=40 --set iters=4
}
python3 - "$(run_scale 64)" "$(run_scale 1024)" <<'PY' \
  || { echo "check: FAILED — 1024-processor scale probe"; exit 1; }
import re, sys
r64, r1k = sys.argv[1], sys.argv[2]
def count(t, k): return int(re.search(k + r":\s+([0-9]+)", t).group(1))
def messages(t): return int(re.search(r"messages/bytes:\s+([0-9]+)", t).group(1))
def resid(t): return float(re.search(r"resid\s+=\s+([-0-9.e+]+)", t).group(1))
assert count(r1k, "static count") == count(r64, "static count"), "static count drifted"
assert count(r1k, "dynamic count") == count(r64, "dynamic count"), "dynamic count drifted"
assert count(r1k, "reductions") == count(r64, "reductions"), "reduction count drifted"
assert messages(r1k) > messages(r64), "messages did not scale with the mesh"
a, b = resid(r64), resid(r1k)
assert abs(a - b) <= 1e-6 * max(1.0, abs(a)), f"residual moved: {a} vs {b}"
print(f"scale probe: counts scale ({messages(r64)} -> {messages(r1k)} messages), residual holds")
PY

# Perf-archive round trip: record deterministic run reports into a scratch
# archive, require the trend table to list their series, and require the
# regression gate to pass on a like-for-like sample and to fail on an
# injected 2x slowdown, all on a temp file.
ARC_DIR="$(mktemp -d)"
ARC="$ARC_DIR/archive.jsonl"
"$BUILD_DIR"/examples/comm_explorer --bench figure1 --experiment pl --procs 4 \
  --report "$ARC_DIR/r.json" >/dev/null
"$BUILD_DIR"/examples/zcomm_bench record --archive="$ARC" --now=1700000000 \
  "$ARC_DIR/r.json" "$ARC_DIR/r.json" >/dev/null
"$BUILD_DIR"/examples/zcomm_bench trend --archive="$ARC" \
  | grep -q 'execution_time_seconds' \
  || { echo "check: FAILED — archive trend missing its series"; exit 1; }
"$BUILD_DIR"/examples/zcomm_bench check --archive="$ARC" "$ARC_DIR/r.json" >/dev/null \
  || { echo "check: FAILED — archive gate rejected a like-for-like sample"; exit 1; }
if "$BUILD_DIR"/examples/zcomm_bench check --archive="$ARC" --scale=2 \
    "$ARC_DIR/r.json" >/dev/null; then
  echo "check: FAILED — archive gate missed an injected 2x slowdown"; exit 1
fi
rm -rf "$ARC_DIR"

echo "check: smoke tier + --jobs 1 vs 2 sweep diff + timeline + 1024-proc scale + archive record/trend/check OK"
