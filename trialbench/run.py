#!/usr/bin/env python3
"""Build and run the TriAL end-to-end benchmark.

Usage (from the repository root):

    python3 trialbench/run.py --workload lookup_snapshot --seed 1 \
        --seconds 25 --trace 0
    python3 trialbench/run.py --test        # the benchmark's own tests

Every call configures and builds the engine and the benchmark with CMake
into the build directory ($CARGO_TARGET_DIR, default .bench_build); only
the first one compiles everything.  Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result.  Per-run reports and
span files are written under <build dir>/out.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir, target):
    """Configures and builds `target`; returns False on failure."""
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", "4", "--target", target]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("trialbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def source_digest():
    """SHA-256 over the engine and benchmark sources, so a report names
    the code it measured even where no git metadata exists."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(HERE, "src"),
             os.path.join(ROOT, "CMakeLists.txt"),
             os.path.join(HERE, "CMakeLists.txt")]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for p in sorted(paths):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time; required with --workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    bdir = build_dir()
    if args.test:
        if not build(bdir, "trialbench_test"):
            return 1
        return subprocess.run([os.path.join(bdir, "trialbench_test")]).returncode
    if not args.workload or args.seconds is None:
        ap.error("--workload and --seconds are required")
    if not build(bdir, "trialbench"):
        return 1
    cmd = [os.path.join(bdir, "trialbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(bdir, "out"),
           "--git-sha", git_sha(), "--source-sha", source_digest()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("trialbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
