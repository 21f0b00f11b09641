#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload <flights_cold|serve_rw|program_corpus> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output is sent to stderr so the result stays the last line of stdout.
Exits non-zero, without a result line, when the sources are missing or the
build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("flights_cold", "serve_rw", "program_corpus")
# Upper bound on one run of the benchmark binary (inputs, set-up, timed
# window and reference checks); a run that exceeds it is stopped.
RUN_TIMEOUT_S = 175


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(root, build_dir, env):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no cqlopt sources under " + os.path.join(root, "src"))
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            log("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        log("build failed")
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)  # no-op when already absolute
    # Compiler and program temporaries stay inside the checkout too.
    tmp = os.path.join(target, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(root, os.path.join(target, "perfbench"), env)
    if binary is None:
        return 2

    # Relative to the checkout root (the binary's working directory), which
    # keeps unix socket paths short.
    target_rel = os.path.relpath(target, root)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(target_rel, "out"),
               "--tmp-dir", os.path.join(target_rel, "tmp")]
    try:
        return subprocess.run(command, cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
