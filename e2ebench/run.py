#!/usr/bin/env python3
"""Build and run the zcomm end-to-end benchmark.

    python3 e2ebench/run.py --workload tables_t3d --seed 1 --seconds 30 --trace 0

Workloads: tables_t3d, mesh_4096, attribution (see e2ebench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.

The first run configures and builds the benchmark, and the repo libraries
it links, into .bench_build/e2ebench at the repo root; later runs rebuild
only what changed. Build output goes to stderr so that the last stdout line
stays the benchmark's JSON result. The exit code is non-zero when the build
fails, an argument is bad, or a cell's result differs from expected.tsv.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"


def check_call(cmd, env):
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        sys.exit("e2ebench: failed: " + " ".join(cmd))


def build():
    """Returns the path of the freshly built benchmark binary."""
    # The compiler's temporary files stay inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        check_call(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator], env)
    check_call(["cmake", "--build", str(BUILD), "--target", "e2ebench", "-j", "4"], env)
    return BUILD / "e2ebench"


def git_sha():
    """HEAD's commit, read from .git directly; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    binary = build()
    cmd = [str(binary), *sys.argv[1:], "--expected", str(HERE / "expected.tsv"),
           "--git-sha", git_sha()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
