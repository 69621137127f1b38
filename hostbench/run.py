#!/usr/bin/env python3
"""Build and run the host-time benchmark.

Usage, from the repository root:

    python3 hostbench/run.py --workload compile|search|verify|serve \
        --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --selftest

Every call configures and builds the library and the benchmark (CMake,
Release) into $CARGO_TARGET_DIR/hostbench, or .bench_build/hostbench
when that variable is unset; later calls only rebuild what changed.
Configuring every time keeps the git revision stamped into the output
current when a build directory is reused across commits.  Build output goes to stderr; the benchmark's own
standard output passes through, so its last line is the result JSON.
A traced run (--trace 1) writes its spans as a Chrome trace next to
the build.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print("hostbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure, then build; return the benchmark binary path."""
    # Compiler temporaries stay inside the build directory.
    tmp_dir = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    # The generator is fixed when the directory is first configured.
    if (not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        cmd += ["-G", "Ninja"]
    step(cmd)
    step(["cmake", "--build", build_dir, "--target", "hostbench",
          "-j", str(os.cpu_count() or 1)])
    return os.path.join(build_dir, "hostbench")


def step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["compile", "search", "verify", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload or --selftest is required")

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "hostbench")
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--expected-dir", os.path.relpath(
               os.path.join(HERE, "expected")),
           "--workdir", work_dir]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
