#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at the programs' test-scale configs.

    python3 e2ebench/selftest.py

Builds the benchmark, writes a test-scale expected-results file with the
kLockstep core, and checks on every workload that:
  - --trace 0 prints exactly the end_to_end metrics of BENCHMARK.json and
    --trace 1 exactly its per_layer metrics, each with its unit;
  - ok_frac is 1, the exit code 0, and the result line stamps the host
    class, git sha and sample counts;
  - traced layer rows reconcile with the traced grid time;
  - another seed changes the cell order and none of the counts.
Then it corrupts one expected result and checks that ok_frac drops below 1
and the exit code is non-zero, so the correctness check can fail.
Exits 0 when every check passes.
"""
import json
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the source tree clean of __pycache__
from run import BUILD, ROOT, build  # noqa: E402

WORKLOADS = ["tables_t3d", "mesh_4096", "attribution"]
RECONCILE_TOLERANCE = 0.02  # kReconcileTolerance in e2ebench.cpp


def run_bench(binary, expected, workload, trace, seed=1):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "test", "--expected", str(expected)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    expected = BUILD / "expected_test.tsv"
    subprocess.run([str(binary), "--write-expected", str(expected), "--scale", "test"],
                   check=True, stderr=subprocess.DEVNULL)
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        orders = {}
        counts = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = run_bench(binary, expected, workload, trace)
            tag = f"{workload} --trace {trace}"
            check(code == 0 and result is not None and result["correct"], f"{tag}: runs correct")
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{tag}: prints every {kind} metric with its unit")
            check(any(l.startswith("host_class=") and "git_sha=" in l and "samples:" in l
                      for l in lines), f"{tag}: stamps host class, git sha and samples")
            orders[trace] = next(l for l in lines if l.startswith("cell order:"))
            if trace == 0:
                check(result["metrics"]["ok_frac"]["value"] == 1, f"{tag}: ok_frac = 1")
            else:
                unattributed = result["metrics"]["bench.unattributed_frac"]["value"]
                check(abs(unattributed) <= RECONCILE_TOLERANCE,
                      f"{tag}: layer rows reconcile ({unattributed:.4%} unattributed)")
                counts[1] = {k: v["value"] for k, v in result["metrics"].items()
                             if v["unit"] == "count"}
        code, lines, result = run_bench(binary, expected, workload, 1, seed=2)
        if result is not None:
            order2 = next(l for l in lines if l.startswith("cell order:"))
            seed2 = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
            check(order2 != orders.get(1) and seed2 == counts.get(1),
                  f"{workload}: --seed changes the cell order and no count")

    rows = expected.read_text().splitlines()
    victim = next(i for i, l in enumerate(rows) if l.startswith("tomcatv\tbaseline\t64\t"))
    fields = rows[victim].split("\t")
    fields[-1] = format(int(fields[-1], 16) ^ 1, "016x")
    rows[victim] = "\t".join(fields)
    corrupted = BUILD / "expected_test_corrupted.tsv"
    corrupted.write_text("\n".join(rows) + "\n")
    for workload in ("tables_t3d", "attribution"):
        code, _, result = run_bench(binary, corrupted, workload, 0)
        check(code != 0 and result is not None and not result["correct"]
              and result["metrics"]["ok_frac"]["value"] < 1,
              f"{workload}: a corrupted expected result drives ok_frac below 1 and exits non-zero")

    print("selftest: " + ("PASS" if not failures else f"{len(failures)} FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
